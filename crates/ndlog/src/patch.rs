//! Program patches — the concrete form of a repair.
//!
//! A [`Patch`] is an ordered list of [`Edit`]s against a [`Program`]. The
//! repair generator (in `mpr-core`) emits patches; this module applies them
//! and renders the paper's human-readable descriptions ("Changing Swi == 2
//! in r7 to Swi == 3", Table 2).
//!
//! Each change has one spelling. A changed constant or variable on one
//! side of a selection is [`Edit::SetSelectionExpr`], which replaces that
//! side whole; a changed assignment is [`Edit::SetAssignExpr`].
//!
//! Syntax preservation (§4.2): every edit is checked against the grammar —
//! e.g. deleting one side of a comparison is impossible by construction,
//! and deleting the last body predicate of a rule is rejected.
//!
//! # Two readings of a patch
//!
//! A repair touches one or two rules of a program that may have hundreds
//! (Fig. 10), so a patch is first of all a [`RuleDelta`]: the touched
//! rules' new versions, by position, plus the rules it appends.
//! [`Patch::delta`] computes it — and decides whether the patched program
//! would be valid — from clones of the touched rules and a
//! [`ProgramOutline`] of the base, built once for any number of patches.
//! [`Patch::apply`] is the second reading, for callers that need the whole
//! program (a compiler, a printer): the same delta, overlaid on one clone
//! of the base. There is one edit semantics; the two differ only in how
//! much of the program they copy.

use crate::ast::{Atom, Binders, CmpOp, Expr, ExprSide, Program, Rule};
use crate::error::PatchError;
use crate::hash::FxBuild;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// One elementary program edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Replace the comparison operator of selection `sel` in `rule`.
    SetSelectionOp {
        /// Target rule id.
        rule: String,
        /// Selection index.
        sel: usize,
        /// New operator.
        op: CmpOp,
    },
    /// Replace one whole side of selection `sel`: a constant change
    /// (`Swi == 2` → `Swi == 3`, Table 2 candidate B) or a variable swap
    /// (`Sip < 6` → `Dpt < 6`, Table 6a candidates J–L).
    SetSelectionExpr {
        /// Target rule id.
        rule: String,
        /// Selection index.
        sel: usize,
        /// Which side to replace.
        side: ExprSide,
        /// New expression.
        expr: Expr,
    },
    /// Delete selection `sel` from `rule`.
    DeleteSelection {
        /// Target rule id.
        rule: String,
        /// Selection index.
        sel: usize,
    },
    /// Delete body predicate `pred` from `rule`.
    DeletePredicate {
        /// Target rule id.
        rule: String,
        /// Predicate index.
        pred: usize,
    },
    /// Replace the right-hand expression of the assignment to `var`.
    SetAssignExpr {
        /// Target rule id.
        rule: String,
        /// Assigned variable.
        var: String,
        /// New expression.
        expr: Expr,
    },
    /// Re-target the head of `rule` to a different table (Q4 repairs:
    /// "changing the head of r5 to packetOut(...)").
    SetHeadTable {
        /// Target rule id.
        rule: String,
        /// New head table.
        table: String,
    },
    /// Add a complete new rule (also used for "copy rule and modify" repairs).
    AddRule {
        /// The rule to append.
        rule: Rule,
    },
    /// Delete a whole rule.
    DeleteRule {
        /// Rule id to remove.
        rule: String,
    },
}

impl Edit {
    /// The id of the rule this edit touches (for [`Edit::AddRule`], of the
    /// rule it adds).
    pub fn rule_id(&self) -> &str {
        match self {
            Edit::SetSelectionOp { rule, .. }
            | Edit::SetSelectionExpr { rule, .. }
            | Edit::DeleteSelection { rule, .. }
            | Edit::DeletePredicate { rule, .. }
            | Edit::SetAssignExpr { rule, .. }
            | Edit::SetHeadTable { rule, .. }
            | Edit::DeleteRule { rule } => rule,
            Edit::AddRule { rule } => &rule.id,
        }
    }
}

/// A rule's atoms: the head, then the body predicates.
fn atoms(rule: &Rule) -> impl Iterator<Item = &Atom> {
    std::iter::once(&rule.head).chain(&rule.body)
}

/// What judging a patch needs to know about the rules it leaves alone:
/// each table's arity with the number of atoms (heads and body predicates)
/// that use it — the use counts are what lets a patch retire an undeclared
/// table's only user and reuse the name at another arity, as
/// [`Program::validate`] on the patched whole would allow.
///
/// An outline exists only of a valid program: [`ProgramOutline::new`]
/// makes every check [`Program::validate`] reports, as it reads the
/// declarations and the rules. Building one is one walk of each rule,
/// which [`ProgramOutline::checking`] shares with a caller's own per-rule
/// checks; a [`Patch::delta`] taken against it finds the rules it touches
/// by id and clones and checks only those. It borrows nothing, so one
/// outline serves everyone who patches the program.
#[derive(Debug, Clone)]
pub struct ProgramOutline {
    /// How many rules the outlined program has.
    rules: usize,
    /// Table → (arity, atoms using it), for every table the program
    /// declares or uses.
    arities: BTreeMap<String, (usize, usize)>,
}

#[cfg(debug_assertions)]
thread_local!(static OUTLINES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });

/// Outlines [`ProgramOutline::new`] built on this thread, the count behind
/// the test that a repair checks its base program once. Debug builds only.
#[cfg(debug_assertions)]
pub fn outlines_built() -> u64 {
    OUTLINES.with(std::cell::Cell::get)
}

impl ProgramOutline {
    /// Outline `program`, or say why it is not a valid program.
    pub fn new(program: &Program) -> Result<Self, String> {
        Self::checking(program, |why| why, |_, _, _| Ok(()))
    }

    /// [`ProgramOutline::new`], walking each rule once for the outline and
    /// for `check`, which sees the rules in program order, each with its
    /// [`Binders`]. A program [`Program::validate`] refuses is refused with
    /// `invalid` of what it says, whatever `check` says of any rule; a valid
    /// one with `check`'s first error, after which `check` sees no more
    /// rules.
    pub fn checking<'p, E>(
        program: &'p Program,
        invalid: impl FnOnce(String) -> E,
        check: impl FnMut(usize, &'p Rule, &Binders) -> Result<(), E>,
    ) -> Result<Self, E> {
        #[cfg(debug_assertions)]
        OUTLINES.with(|n| n.set(n.get() + 1));
        match Self::walk(program, check) {
            Err(why) => Err(invalid(why)),
            Ok((_, Some(refused))) => Err(refused),
            Ok((outline, None)) => Ok(outline),
        }
    }

    /// The outline of `program` and `check`'s first error, or why
    /// `program` is invalid.
    fn walk<'p, E>(
        program: &'p Program,
        mut check: impl FnMut(usize, &'p Rule, &Binders) -> Result<(), E>,
    ) -> Result<(Self, Option<E>), String> {
        for s in program.catalog.iter() {
            if let Some(k) = s.keys.iter().find(|&&k| k >= s.arity) {
                return Err(format!("table `{}`: key column {k} out of range for arity {}", s.table, s.arity));
            }
        }
        let mut ids: HashSet<&str, FxBuild> = HashSet::with_capacity_and_hasher(program.rules.len(), FxBuild::default());
        let mut arities: HashMap<&str, (usize, usize), FxBuild> =
            program.catalog.iter().map(|s| (s.table.as_str(), (s.arity, 0))).collect();
        let mut refused = None;
        for (pos, r) in program.rules.iter().enumerate() {
            if !ids.insert(r.id.as_str()) {
                return Err(format!("duplicate rule id `{}`", r.id));
            }
            let bound = Binders::of(r);
            r.check_head_bound(&bound)?;
            for atom in atoms(r) {
                let (arity, uses) = arities.entry(atom.table.as_str()).or_insert((atom.args.len(), 0));
                atom.check_arity(*arity, &program.catalog)?;
                *uses += 1;
            }
            if refused.is_none() {
                refused = check(pos, r, &bound).err();
            }
        }
        let arities = arities.into_iter().map(|(table, entry)| (table.to_string(), entry)).collect();
        Ok((ProgramOutline { rules: program.rules.len(), arities }, refused))
    }

    /// Every table the program declares or uses, with its one arity, in
    /// name order.
    pub fn arities(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        self.arities.iter().map(|(table, &(arity, _))| (table.as_str(), arity))
    }
}

/// What a patch changes in a program, rule by rule — the "copies of all
/// the rules the repair candidate modifies" that §4.4 builds the
/// backtesting program from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuleDelta {
    /// Base rules the patch edited (`Some`, the new version) or deleted
    /// (`None`), by position in the base's [`Program::rules`]: ascending,
    /// each position at most once.
    pub changed: Vec<(usize, Option<Rule>)>,
    /// Rules the patch appends after the base's, in order.
    pub added: Vec<Rule>,
}

/// Where the live rule of some id is while a delta is being taken.
enum Slot {
    /// The base rule at this position (edited or not).
    Base(usize),
    /// This entry of [`RuleDelta::added`].
    Added(usize),
}

impl RuleDelta {
    /// The rules this delta brings: edited versions, then additions.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.changed.iter().filter_map(|(_, r)| r.as_ref()).chain(&self.added)
    }

    /// `base` with the delta applied: edited rules in place, deleted rules
    /// gone, added rules at the end.
    pub fn overlay(&self, base: &Program) -> Program {
        let mut out = base.clone();
        let mut deleted: Vec<usize> = Vec::new();
        for (pos, rule) in &self.changed {
            match rule {
                Some(rule) => out.rules[*pos] = rule.clone(),
                None => deleted.push(*pos),
            }
        }
        if !deleted.is_empty() {
            let mut pos = 0;
            out.rules.retain(|_| {
                pos += 1;
                !deleted.contains(&(pos - 1))
            });
        }
        out.rules.extend(self.added.iter().cloned());
        out
    }

    fn locate(&self, base: &Program, id: &str) -> Option<Slot> {
        if let Some(pos) = base.rules.iter().position(|r| r.id == id) {
            if !self.changed.iter().any(|(p, r)| *p == pos && r.is_none()) {
                return Some(Slot::Base(pos));
            }
        }
        // Not in the base, or deleted from it: an `AddRule` may have
        // (re-)introduced the id.
        self.added.iter().position(|r| r.id == id).map(Slot::Added)
    }

    /// The `changed` entry for base position `pos`, created on first touch.
    fn touch(&mut self, pos: usize) -> &mut Option<Rule> {
        let i = match self.changed.iter().position(|(p, _)| *p == pos) {
            Some(i) => i,
            None => {
                self.changed.push((pos, None));
                self.changed.len() - 1
            }
        };
        &mut self.changed[i].1
    }

    fn edit(&mut self, base: &Program, e: &Edit) -> Result<(), PatchError> {
        let slot = self.locate(base, e.rule_id());
        match (e, slot) {
            (Edit::AddRule { rule }, None) => self.added.push(rule.clone()),
            (Edit::AddRule { rule }, Some(_)) => {
                return Err(PatchError::WouldBreakSyntax(format!(
                    "duplicate rule id `{}`",
                    rule.id
                )));
            }
            (_, None) => return Err(PatchError::NoSuchRule(e.rule_id().to_string())),
            (Edit::DeleteRule { .. }, Some(Slot::Base(pos))) => *self.touch(pos) = None,
            (Edit::DeleteRule { .. }, Some(Slot::Added(i))) => {
                self.added.remove(i);
            }
            (_, Some(Slot::Base(pos))) => {
                let rule = self.touch(pos).get_or_insert_with(|| base.rules[pos].clone());
                edit_rule(rule, e)?;
            }
            (_, Some(Slot::Added(i))) => edit_rule(&mut self.added[i], e)?,
        }
        Ok(())
    }

    /// The verdict [`Program::validate`] reaches on `base` overlaid with
    /// this delta, reading only the delta's rules. `base` itself is valid
    /// (it has an outline), ids stay unique by construction (`AddRule`
    /// refuses a live id and no edit renames a rule), so what is left to
    /// check is the delta's rules: their heads bound, and their atoms'
    /// arities against the declarations and the atoms the untouched rules
    /// keep.
    fn check(&self, base: &Program, outline: &ProgramOutline) -> Result<(), String> {
        // Atoms the touched rules' base versions no longer contribute.
        let mut retired: Vec<(&str, usize)> = Vec::new();
        for (pos, _) in &self.changed {
            for atom in atoms(&base.rules[*pos]) {
                match retired.iter_mut().find(|(t, _)| *t == atom.table) {
                    Some((_, n)) => *n += 1,
                    None => retired.push((&atom.table, 1)),
                }
            }
        }
        // Arities the delta's own atoms fix, for tables no untouched rule
        // uses any more.
        let mut fresh: Vec<(&str, usize)> = Vec::new();
        for rule in self.rules() {
            rule.check_head_bound(&Binders::of(rule))?;
            for atom in atoms(rule) {
                let table = atom.table.as_str();
                let retired = retired.iter().find(|(t, _)| *t == table).map_or(0, |(_, n)| *n);
                let arity = match (base.catalog.get(table), outline.arities.get(table)) {
                    (Some(declared), _) => declared.arity,
                    (None, Some(&(arity, uses))) if uses > retired => arity,
                    (None, _) => match fresh.iter().find(|(t, _)| *t == table) {
                        Some(&(_, arity)) => arity,
                        None => {
                            fresh.push((table, atom.args.len()));
                            atom.args.len()
                        }
                    },
                };
                atom.check_arity(arity, &base.catalog)?;
            }
        }
        Ok(())
    }
}

/// An ordered collection of edits applied atomically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Patch {
    /// Edits, applied in order (deletions are internally reordered
    /// descending so earlier deletions do not shift later indices).
    pub edits: Vec<Edit>,
}

impl Patch {
    /// A patch with a single edit.
    pub fn single(edit: Edit) -> Self {
        Patch { edits: vec![edit] }
    }

    /// A patch with several edits.
    pub fn of(edits: Vec<Edit>) -> Self {
        Patch { edits }
    }

    /// `true` when the patch contains no edits.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// What the patch changes in `base`, whose `outline` the caller built
    /// (once, for every patch it means to judge).
    ///
    /// The input program is left untouched; candidate repairs are backtested
    /// side by side (§4.4), so patches never mutate in place. Fails exactly
    /// when [`Patch::apply`] fails, with the same error: an edit that names
    /// a missing rule or site, or a patched program [`Program::validate`]
    /// would reject.
    pub fn delta(
        &self,
        base: &Program,
        outline: &ProgramOutline,
    ) -> Result<RuleDelta, PatchError> {
        assert_eq!(outline.rules, base.rules.len(), "the outline of another program");
        let mut delta = RuleDelta::default();
        for e in self.in_order() {
            delta.edit(base, e)?;
        }
        delta.changed.sort_by_key(|(pos, _)| *pos);
        delta.check(base, outline).map_err(PatchError::WouldBreakSyntax)?;
        Ok(delta)
    }

    /// The edits in the order they are applied: site deletions last, in
    /// descending index order, so that a multi-delete patch ("Deleting
    /// Swi==2 and Dpt==53 in r6", Table 2 candidate G) is well defined.
    fn in_order(&self) -> impl Iterator<Item = &Edit> {
        let site = |e: &Edit| match e {
            Edit::DeleteSelection { sel, .. } => Some(*sel),
            Edit::DeletePredicate { pred, .. } => Some(*pred),
            _ => None,
        };
        let mut dels: Vec<&Edit> = self.edits.iter().filter(|e| site(e).is_some()).collect();
        dels.sort_by_key(|e| std::cmp::Reverse(site(e)));
        self.edits.iter().filter(move |e| site(e).is_none()).chain(dels)
    }

    /// [`Patch::delta`]'s verdict against the program holding `rule` alone
    /// and declaring nothing, without building it; `false` if `rule` alone
    /// is invalid, or an edit is of another rule, `AddRule` or `DeleteRule`.
    /// Edits of selections and assignment expressions bind no variable and
    /// name no table: they apply if each finds its site, in `delta`'s order.
    /// A patch with any other edit runs on a clone of `rule`, then checked.
    pub fn applies_to_rule(&self, rule: &Rule) -> bool {
        let of_rule = |e: &Edit| e.rule_id() == rule.id && !matches!(e, Edit::AddRule { .. } | Edit::DeleteRule { .. });
        if !self.edits.iter().all(of_rule) || !valid_alone(rule) {
            return false;
        }
        let (sels, mut deleted) = (rule.sels.len(), 0);
        let mut finds_site = |e: &Edit| match e {
            Edit::SetSelectionOp { sel, .. } | Edit::SetSelectionExpr { sel, .. } => Some(*sel < sels),
            Edit::DeleteSelection { sel, .. } => {
                deleted += 1;
                Some(*sel + deleted <= sels)
            }
            Edit::SetAssignExpr { var, .. } => Some(rule.assigns.iter().any(|a| &a.var == var)),
            _ => None,
        };
        if let Some(verdict) = self.in_order().try_fold(true, |all, e| Some(finds_site(e)? && all)) {
            return verdict;
        }
        let mut edited = rule.clone();
        self.in_order().all(|e| edit_rule(&mut edited, e).is_ok()) && valid_alone(&edited)
    }

    /// Apply the patch to `program`, returning the repaired program: the
    /// [`Patch::delta`], overlaid on a clone. For a caller that needs the
    /// whole program; one that only needs the verdict, or the changed
    /// rules, takes the delta. An invalid `program` is refused with what
    /// [`Program::validate`] says about it.
    pub fn apply(&self, program: &Program) -> Result<Program, PatchError> {
        let outline = ProgramOutline::new(program).map_err(PatchError::WouldBreakSyntax)?;
        Ok(self.delta(program, &outline)?.overlay(program))
    }

    /// Render a human-readable description against the *original* program,
    /// in the style of the paper's Table 2.
    pub fn describe(&self, program: &Program) -> String {
        self.describe_with(|id| program.rule(id))
    }

    /// [`Patch::describe`] against the program holding `rule` alone — the
    /// description of a patch of `rule` in any program.
    pub fn describe_rule(&self, rule: &Rule) -> String {
        self.describe_with(|id| (id == rule.id).then_some(rule))
    }

    /// The edits' descriptions, `; `-separated.
    fn describe_with<'r>(&self, rule_of: impl Fn(&str) -> Option<&'r Rule>) -> String {
        let mut parts = self.edits.iter().map(|e| describe_one(&rule_of, e));
        let first = parts.next().unwrap_or_default();
        parts.fold(first, |out, part| out + "; " + &part)
    }
}

/// Would [`Program::validate`] pass the program holding `rule` alone, with
/// no declarations: head bound, each table at one arity?
fn valid_alone(rule: &Rule) -> bool {
    let agrees = |(i, b): (usize, &Atom)| atoms(rule).take(i).all(|a| a.table != b.table || a.args.len() == b.args.len());
    rule.unbound_head_vars().is_empty() && atoms(rule).enumerate().all(agrees)
}

impl fmt::Display for Patch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.edits.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e:?}")?;
        }
        Ok(())
    }
}

/// Apply an edit of one rule's literals to that rule.
fn edit_rule(r: &mut Rule, e: &Edit) -> Result<(), PatchError> {
    match e {
        Edit::SetSelectionOp { rule, sel, op } => {
            let s = r
                .sels
                .get_mut(*sel)
                .ok_or_else(|| PatchError::NoSuchSite(format!("{rule}: selection {sel}")))?;
            s.op = *op;
            Ok(())
        }
        Edit::SetSelectionExpr { rule, sel, side, expr } => {
            let s = r
                .sels
                .get_mut(*sel)
                .ok_or_else(|| PatchError::NoSuchSite(format!("{rule}: selection {sel}")))?;
            match side {
                ExprSide::Lhs => s.lhs = expr.clone(),
                ExprSide::Rhs => s.rhs = expr.clone(),
            }
            Ok(())
        }
        Edit::DeleteSelection { rule, sel } => {
            if *sel >= r.sels.len() {
                return Err(PatchError::NoSuchSite(format!("{rule}: selection {sel}")));
            }
            r.sels.remove(*sel);
            Ok(())
        }
        Edit::DeletePredicate { rule, pred } => {
            if *pred >= r.body.len() {
                return Err(PatchError::NoSuchSite(format!("{rule}: predicate {pred}")));
            }
            if r.body.len() == 1 {
                return Err(PatchError::WouldBreakSyntax(format!(
                    "rule `{rule}` would have an empty body"
                )));
            }
            r.body.remove(*pred);
            Ok(())
        }
        Edit::SetAssignExpr { rule, var, expr } => {
            let a = r
                .assigns
                .iter_mut()
                .find(|a| &a.var == var)
                .ok_or_else(|| PatchError::NoSuchSite(format!("{rule}: assignment to {var}")))?;
            a.expr = expr.clone();
            Ok(())
        }
        Edit::SetHeadTable { table, .. } => {
            r.head.table = table.clone();
            Ok(())
        }
        Edit::AddRule { .. } | Edit::DeleteRule { .. } => {
            unreachable!("whole-rule edits are applied to the rule list, not to a rule")
        }
    }
}

/// One edit's description, reading the rules through `rule_of`. A changed
/// selection is written from its parts, as its `Display` writes it.
fn describe_one<'r>(rule_of: &impl Fn(&str) -> Option<&'r Rule>, e: &Edit) -> String {
    match e {
        Edit::SetSelectionOp { rule, sel, op } => {
            if let Some(s) = rule_of(rule).and_then(|r| r.sels.get(*sel)) {
                format!("Changing {s} in {rule} to {} {op} {}", s.lhs, s.rhs)
            } else {
                format!("Changing operator of selection {sel} in {rule} to {op}")
            }
        }
        Edit::SetSelectionExpr { rule, sel, side, expr } => {
            if let Some(s) = rule_of(rule).and_then(|r| r.sels.get(*sel)) {
                let (lhs, rhs) = match side {
                    ExprSide::Lhs => (expr, &s.rhs),
                    ExprSide::Rhs => (&s.lhs, expr),
                };
                format!("Changing {s} in {rule} to {lhs} {} {rhs}", s.op)
            } else {
                format!("Changing selection {sel} in {rule} to {expr}")
            }
        }
        Edit::DeleteSelection { rule, sel } => {
            if let Some(s) = rule_of(rule).and_then(|r| r.sels.get(*sel)) {
                format!("Deleting {s} in {rule}")
            } else {
                format!("Deleting selection {sel} in {rule}")
            }
        }
        Edit::DeletePredicate { rule, pred } => {
            if let Some(a) = rule_of(rule).and_then(|r| r.body.get(*pred)) {
                format!("Deleting predicate {} in {rule}", a.table)
            } else {
                format!("Deleting predicate {pred} in {rule}")
            }
        }
        Edit::SetAssignExpr { rule, var, expr } => {
            if let Some(a) =
                rule_of(rule).and_then(|r| r.assigns.iter().find(|a| &a.var == var))
            {
                format!("Changing {} := {} in {rule} to {} := {expr}", a.var, a.expr, var)
            } else {
                format!("Changing assignment to {var} in {rule} to {expr}")
            }
        }
        Edit::SetHeadTable { rule, table } => {
            format!("Changing the head of {rule} to {table}(...)")
        }
        Edit::AddRule { rule } => format!("Adding rule: {rule}"),
        Edit::DeleteRule { rule } => format!("Deleting rule {rule}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_rule};

    fn fig2() -> Program {
        parse_program(
            "fig2",
            r"
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            r6 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 53, Prt := 2.
            r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
            ",
        )
        .unwrap()
    }

    #[test]
    fn candidate_b_changes_constant() {
        // Table 2 candidate B: Swi==2 in r7 → Swi==3.
        let p = fig2();
        let patch = Patch::single(Edit::SetSelectionExpr {
            rule: "r7".into(),
            sel: 0,
            side: ExprSide::Rhs,
            expr: Expr::int(3),
        });
        assert_eq!(patch.describe(&p), "Changing Swi == 2 in r7 to Swi == 3");
        let p2 = patch.apply(&p).unwrap();
        assert_eq!(p2.rule("r7").unwrap().sels[0].sid(), "Swi == 3");
        // original untouched
        assert_eq!(p.rule("r7").unwrap().sels[0].sid(), "Swi == 2");
    }

    #[test]
    fn candidate_c_changes_operator() {
        let p = fig2();
        let patch = Patch::single(Edit::SetSelectionOp { rule: "r7".into(), sel: 0, op: CmpOp::Ne });
        assert_eq!(patch.describe(&p), "Changing Swi == 2 in r7 to Swi != 2");
        let p2 = patch.apply(&p).unwrap();
        assert_eq!(p2.rule("r7").unwrap().sels[0].op, CmpOp::Ne);
    }

    #[test]
    fn candidate_g_deletes_two_selections() {
        // "Deleting Swi==2 and Dpt==53 in r6" — indices 0 and 1.
        let p = fig2();
        let patch = Patch::of(vec![
            Edit::DeleteSelection { rule: "r6".into(), sel: 0 },
            Edit::DeleteSelection { rule: "r6".into(), sel: 1 },
        ]);
        assert_eq!(patch.describe(&p), "Deleting Swi == 2 in r6; Deleting Hdr == 53 in r6");
        let p2 = patch.apply(&p).unwrap();
        assert!(p2.rule("r6").unwrap().sels.is_empty());
    }

    #[test]
    fn deleting_last_predicate_is_rejected() {
        let p = fig2();
        let patch = Patch::single(Edit::DeletePredicate { rule: "r7".into(), pred: 0 });
        assert!(matches!(patch.apply(&p), Err(PatchError::WouldBreakSyntax(_))));
    }

    #[test]
    fn head_retarget_and_add_rule() {
        let mut p = fig2();
        p.rules.push(
            parse_rule("e2 PacketOut(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 9, Prt := 1.")
                .unwrap(),
        );
        let patch = Patch::single(Edit::SetHeadTable { rule: "r5".into(), table: "PacketOut".into() });
        let p2 = patch.apply(&p).unwrap();
        assert_eq!(p2.rule("r5").unwrap().head.table, "PacketOut");

        // Copy-rule repair: copy r5 under a fresh id with a new head.
        let mut copy = p.rule("r5").unwrap().clone();
        copy.id = "r5_copy".into();
        copy.head.table = "PacketOut".into();
        let patch = Patch::single(Edit::AddRule { rule: copy });
        let p3 = patch.apply(&p).unwrap();
        assert_eq!(p3.rules.len(), p.rules.len() + 1);
        assert!(p3.rule("r5_copy").is_some());

        // Duplicate id rejected.
        let dup = p.rule("r5").unwrap().clone();
        assert!(Patch::single(Edit::AddRule { rule: dup }).apply(&p).is_err());
    }

    #[test]
    fn errors_on_missing_sites() {
        let p = fig2();
        assert!(matches!(
            Patch::single(Edit::DeleteRule { rule: "zz".into() }).apply(&p),
            Err(PatchError::NoSuchRule(_))
        ));
        assert!(matches!(
            Patch::single(Edit::DeleteSelection { rule: "r7".into(), sel: 9 }).apply(&p),
            Err(PatchError::NoSuchSite(_))
        ));
        assert!(matches!(
            Patch::single(Edit::SetAssignExpr {
                rule: "r7".into(),
                var: "Nope".into(),
                expr: Expr::int(1)
            })
            .apply(&p),
            Err(PatchError::NoSuchSite(_))
        ));
        assert!(matches!(
            Patch::single(Edit::SetSelectionExpr {
                rule: "r7".into(),
                sel: 2,
                side: ExprSide::Rhs,
                expr: Expr::int(1)
            })
            .apply(&p),
            Err(PatchError::NoSuchSite(_)) // r7 has two selections
        ));
    }

    #[test]
    fn variable_swap_description() {
        // Table 6a candidate J: Changing Sip<6 in r1 to Dpt<6.
        let p = parse_program(
            "q2",
            "r1 FlowTable(@Swi,Sip,Prt) :- PacketIn(@C,Swi,Sip,Dpt), Sip < 6, Prt := 1.",
        )
        .unwrap();
        let patch = Patch::single(Edit::SetSelectionExpr {
            rule: "r1".into(),
            sel: 0,
            side: ExprSide::Lhs,
            expr: Expr::var("Dpt"),
        });
        assert_eq!(patch.describe(&p), "Changing Sip < 6 in r1 to Dpt < 6");
        assert!(patch.apply(&p).is_ok());
    }

    // -----------------------------------------------------------------
    // `delta` ≡ whole-program `apply`

    /// `apply` as it was before patches had deltas — clone the program,
    /// find each edit's rule by scanning, edit in place — minus the final
    /// `validate`, so that callers also get to see invalid results. Kept as
    /// the reference [`Patch::delta`] is compared against; it shares only
    /// the single-rule literal edits ([`edit_rule`]) with it.
    fn edit_whole_program(patch: &Patch, program: &Program) -> Result<Program, PatchError> {
        fn apply_one(p: &mut Program, e: &Edit) -> Result<(), PatchError> {
            match e {
                Edit::AddRule { rule } => {
                    if p.rule(&rule.id).is_some() {
                        return Err(PatchError::WouldBreakSyntax(format!(
                            "duplicate rule id `{}`",
                            rule.id
                        )));
                    }
                    p.rules.push(rule.clone());
                    Ok(())
                }
                Edit::DeleteRule { rule } => {
                    let before = p.rules.len();
                    p.rules.retain(|r| &r.id != rule);
                    if p.rules.len() == before {
                        return Err(PatchError::NoSuchRule(rule.clone()));
                    }
                    Ok(())
                }
                _ => {
                    let id = e.rule_id();
                    let r = p.rule_mut(id).ok_or_else(|| PatchError::NoSuchRule(id.to_string()))?;
                    edit_rule(r, e)
                }
            }
        }
        let mut out = program.clone();
        let mut dels: Vec<&Edit> = Vec::new();
        for e in &patch.edits {
            match e {
                Edit::DeleteSelection { .. } | Edit::DeletePredicate { .. } => dels.push(e),
                _ => apply_one(&mut out, e)?,
            }
        }
        dels.sort_by_key(|e| {
            std::cmp::Reverse(match e {
                Edit::DeleteSelection { sel, .. } => *sel,
                Edit::DeletePredicate { pred, .. } => *pred,
                _ => 0,
            })
        });
        for e in dels {
            apply_one(&mut out, e)?;
        }
        Ok(out)
    }

    /// The reference: edit a clone, then `validate` all of it.
    fn apply_by_clone_scan_validate(patch: &Patch, program: &Program) -> Result<Program, PatchError> {
        let out = edit_whole_program(patch, program)?;
        out.validate().map_err(PatchError::WouldBreakSyntax)?;
        Ok(out)
    }

    /// A program or an error variant, comparable.
    fn verdict(r: Result<Program, PatchError>) -> Result<Program, std::mem::Discriminant<PatchError>> {
        r.map_err(|e| std::mem::discriminant(&e))
    }

    /// Take `patch`'s delta of the valid program `base`, overlay it, and
    /// require the reference's answer: the identical program, rule order
    /// included, or the identical error variant. Returns that answer.
    fn assert_delta_is_apply(base: &Program, patch: &Patch) -> Result<Program, PatchError> {
        let outline = ProgramOutline::new(base).expect("the base is valid");
        let want = apply_by_clone_scan_validate(patch, base);
        let delta = patch.delta(base, &outline);
        if let Ok(d) = &delta {
            assert!(d.changed.windows(2).all(|w| w[0].0 < w[1].0), "positions ascend: {d:?}");
        }
        let got = delta.map(|d| d.overlay(base));
        assert_eq!(verdict(got), verdict(want.clone()), "delta + overlay, patch {patch}");
        assert_eq!(verdict(patch.apply(base)), verdict(want.clone()), "apply, patch {patch}");
        want
    }

    fn is_syntax_error(r: &Result<Program, PatchError>) -> bool {
        matches!(r, Err(PatchError::WouldBreakSyntax(_)))
    }

    /// A valid program of `specs.len()` rules `r0`, `r1`, …: each derives
    /// `Out` (arity 2) or `Fwd` (arity 3) from `In`, optionally joined with
    /// `Cfg` and with a table only this rule uses (`Solo<i>`, arity 1 or 2).
    fn generated_program(specs: &[(bool, bool, bool, usize, i64)]) -> Program {
        let mut src = String::new();
        for (i, &(fwd, cfg, solo, nsels, k)) in specs.iter().enumerate() {
            let head = if fwd { "Fwd(@Swi,Hdr,Prt,7)" } else { "Out(@Swi,Hdr,Prt)" };
            let mut body = String::from("In(@C,Swi,Hdr)");
            if cfg {
                body.push_str(", Cfg(@C,Swi)");
            }
            if solo {
                body.push_str(&format!(", Solo{i}(@C,Swi{})", if i % 2 == 0 { "" } else { ",Hdr" }));
            }
            let sels = ["Swi == 2", "Hdr == 80", "Swi + 1 < 9"];
            for sel in &sels[..nsels] {
                body.push_str(&format!(", {sel}"));
            }
            src.push_str(&format!("r{i} {head} :- {body}, Prt := {k}.\n"));
        }
        parse_program("generated", &src).unwrap()
    }

    /// How many edit kinds [`generated_edit`] draws from; the last is
    /// `DeleteRule`.
    const KINDS: usize = 8;

    /// One edit from four raw draws. Targets and indices run a little past
    /// what exists, so every error variant occurs; `n0` is the id an
    /// `AddRule` earlier in the patch may have introduced.
    fn generated_edit(base: &Program, (kind, target, a, b): (usize, usize, usize, usize)) -> Edit {
        let n = base.rules.len();
        let rule = match target % (n + 2) {
            t if t < n => format!("r{t}"),
            t if t == n => "zz".to_string(),
            _ => "n0".to_string(),
        };
        let var = |i: usize| ["Swi", "Hdr", "Nope"][i % 3].to_string();
        match kind % KINDS {
            0 => Edit::SetSelectionOp { rule, sel: b % 4, op: CmpOp::ALL[a % 6] },
            1 => Edit::SetSelectionExpr {
                rule,
                sel: b % 4,
                side: if a % 2 == 0 { ExprSide::Lhs } else { ExprSide::Rhs },
                expr: if a % 3 == 0 { Expr::int(b as i64) } else { Expr::var(var(a / 2)) },
            },
            2 => Edit::DeleteSelection { rule, sel: b % 4 },
            3 => Edit::DeletePredicate { rule, pred: b % 4 },
            4 => Edit::SetAssignExpr {
                rule,
                var: if a % 4 == 0 { "Nope".into() } else { "Prt".into() },
                expr: Expr::int(b as i64),
            },
            5 => Edit::SetHeadTable {
                rule,
                table: match a % 5 {
                    0 => "Out".into(),
                    1 => "Fwd".into(),
                    2 => "In".into(),
                    3 => "Fresh".into(),
                    _ => format!("Solo{}", b % n),
                },
            },
            6 => {
                // A copy of some base rule under a fresh or a live id,
                // sometimes with an atom at an arity the program does not
                // use that table at.
                let mut copy = base.rules[b % n].clone();
                copy.id = match a % 4 {
                    0 | 1 => "n0".into(),
                    2 => "n1".into(),
                    _ => rule,
                };
                match (a / 4) % 4 {
                    0 => copy.body.push(parse_rule("x X(@C) :- Cfg(@C,Swi,Hdr).").unwrap().body.remove(0)),
                    // With a `DeleteRule` of the same target, the table's
                    // only user may be gone.
                    1 => copy.head.table = format!("Solo{}", target % n),
                    _ => {}
                }
                Edit::AddRule { rule: copy }
            }
            _ => Edit::DeleteRule { rule },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(768))]

        /// Programs of 1–40 rules × patches of 1–3 edits of every kind.
        #[test]
        fn delta_overlaid_is_the_whole_program_apply(
            specs in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>(),
                 proptest::prelude::any::<bool>(), 0usize..4, 1i64..5),
                1..41,
            ),
            draws in proptest::collection::vec((0usize..KINDS, 0usize..64, 0usize..64, 0usize..64), 1..4),
            mode in 0usize..4,
        ) {
            let base = generated_program(&specs);
            let first_target = draws[0].1;
            // Half the patches aim every edit at one rule, where edits
            // interact; half of those delete that rule first, so that what
            // follows meets a program without it (and without its atoms).
            let mut edits: Vec<Edit> = draws
                .into_iter()
                .map(|(kind, target, a, b)| {
                    let target = if mode >= 2 { first_target } else { target };
                    generated_edit(&base, (kind, target, a, b))
                })
                .collect();
            if mode == 3 {
                edits.insert(0, generated_edit(&base, (KINDS - 1, first_target, 0, 0)));
            }
            let _ = assert_delta_is_apply(&base, &Patch::of(edits));
        }
    }

    #[test]
    fn the_generated_patches_reach_every_verdict() {
        // The property above is only as good as its generator: over a fixed
        // sweep of draws — each edit alone, and after a `DeleteRule` of its
        // target — every edit kind is accepted at least once, every error
        // variant occurs, and some accepted patch reuses a table name at
        // another arity (which only the outline's use counts allow).
        let base = generated_program(&[
            (false, true, true, 3, 1),
            (true, false, true, 2, 2),
            (false, true, false, 0, 3),
        ]);
        let arities = |p: &Program| -> std::collections::BTreeMap<String, usize> {
            p.rules.iter().flat_map(atoms).map(|a| (a.table.clone(), a.args.len())).collect()
        };
        let mut accepted = [0usize; KINDS];
        let mut errors = std::collections::BTreeSet::new();
        let mut reused = 0;
        for (kind, accepted) in accepted.iter_mut().enumerate() {
            for target in 0..5 {
                for a in 0..20 {
                    for b in 0..12 {
                        let edit = generated_edit(&base, (kind, target, a, b));
                        let retire = generated_edit(&base, (KINDS - 1, target, 0, 0));
                        for patch in [Patch::single(edit.clone()), Patch::of(vec![retire, edit])] {
                            match assert_delta_is_apply(&base, &patch) {
                                Ok(out) => {
                                    *accepted += 1;
                                    let was = arities(&base);
                                    reused += arities(&out)
                                        .iter()
                                        .filter(|(t, n)| was.get(*t).is_some_and(|m| m != *n))
                                        .count();
                                }
                                Err(e) => {
                                    let name = format!("{e:?}");
                                    errors.insert(name.split('(').next().unwrap().to_string());
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(accepted.iter().all(|&n| n > 0), "accepted per kind: {accepted:?}");
        let variants: Vec<&str> = errors.iter().map(String::as_str).collect();
        assert_eq!(variants, ["NoSuchRule", "NoSuchSite", "WouldBreakSyntax"]);
        assert!(reused > 0, "no accepted patch moved a table to another arity");
    }

    #[test]
    fn delta_names_only_the_touched_rules() {
        let p = fig2();
        let outline = ProgramOutline::new(&p).unwrap();
        let patch = Patch::of(vec![
            Edit::SetSelectionOp { rule: "r7".into(), sel: 0, op: CmpOp::Ne },
            Edit::DeleteRule { rule: "r5".into() },
            Edit::AddRule { rule: parse_rule("n0 Out(@A,B) :- In(@A,B).").unwrap() },
        ]);
        let d = patch.delta(&p, &outline).unwrap();
        let changed: Vec<(usize, Option<String>)> =
            d.changed.iter().map(|(pos, r)| (*pos, r.as_ref().map(|r| r.sels[0].sid()))).collect();
        assert_eq!(changed, [(0, None), (2, Some("Swi != 2".to_string()))]);
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.rules().map(|r| r.id.as_str()).collect::<Vec<_>>(), ["r7", "n0"]);
        let ids: Vec<String> = d.overlay(&p).rules.iter().map(|r| r.id.clone()).collect();
        assert_eq!(ids, ["r6", "r7", "n0"]);
    }

    #[test]
    fn delta_reports_missing_rules_and_sites() {
        let p = fig2();
        let missing_rule = Patch::single(Edit::SetSelectionOp { rule: "zz".into(), sel: 0, op: CmpOp::Ne });
        assert!(matches!(assert_delta_is_apply(&p, &missing_rule), Err(PatchError::NoSuchRule(_))));
        let missing_site = Patch::single(Edit::SetSelectionOp { rule: "r7".into(), sel: 9, op: CmpOp::Ne });
        assert!(matches!(assert_delta_is_apply(&p, &missing_site), Err(PatchError::NoSuchSite(_))));
        // The first failing edit decides, as it did when edits ran on a clone.
        let both = Patch::of(vec![missing_site.edits[0].clone(), missing_rule.edits[0].clone()]);
        assert!(matches!(assert_delta_is_apply(&p, &both), Err(PatchError::NoSuchSite(_))));
    }

    #[test]
    fn add_rule_with_a_live_id_is_refused() {
        let p = fig2();
        let dup = p.rule("r6").unwrap().clone();
        let r = assert_delta_is_apply(&p, &Patch::single(Edit::AddRule { rule: dup.clone() }));
        assert!(is_syntax_error(&r));
        // Also when the live id was itself added by the patch.
        let mut fresh = dup;
        fresh.id = "n0".into();
        let twice = Patch::of(vec![
            Edit::AddRule { rule: fresh.clone() },
            Edit::AddRule { rule: fresh },
        ]);
        assert!(is_syntax_error(&assert_delta_is_apply(&p, &twice)));
    }

    #[test]
    fn deleting_and_re_adding_a_rule_moves_it_to_the_end() {
        let p = fig2();
        let mut r5 = p.rule("r5").unwrap().clone();
        r5.sels.pop();
        let patch = Patch::of(vec![
            Edit::DeleteRule { rule: "r5".into() },
            Edit::AddRule { rule: r5.clone() },
            // Edits after the re-add land on the new rule, not on the
            // deleted base rule.
            Edit::SetSelectionOp { rule: "r5".into(), sel: 0, op: CmpOp::Gt },
        ]);
        let out = assert_delta_is_apply(&p, &patch).unwrap();
        let ids: Vec<&str> = out.rules.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["r6", "r7", "r5"]);
        assert_eq!(out.rules[2].to_string(), "r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi > 2, Prt := 1.");
        // Deleting it a second time removes the re-added rule; a third
        // time finds nothing.
        let mut edits = patch.edits.clone();
        edits.push(Edit::DeleteRule { rule: "r5".into() });
        assert_eq!(assert_delta_is_apply(&p, &Patch::of(edits.clone())).unwrap().rules.len(), 2);
        edits.push(Edit::DeleteRule { rule: "r5".into() });
        assert!(matches!(assert_delta_is_apply(&p, &Patch::of(edits)), Err(PatchError::NoSuchRule(_))));
    }

    #[test]
    fn edits_reach_a_rule_added_earlier_in_the_patch() {
        let p = fig2();
        let mut copy = p.rule("r7").unwrap().clone();
        copy.id = "r7_copy".into();
        let patch = Patch::of(vec![
            Edit::AddRule { rule: copy },
            Edit::SetSelectionExpr {
                rule: "r7_copy".into(),
                sel: 0,
                side: ExprSide::Rhs,
                expr: Expr::int(3),
            },
            Edit::DeleteSelection { rule: "r7_copy".into(), sel: 1 },
        ]);
        let out = assert_delta_is_apply(&p, &patch).unwrap();
        assert_eq!(out.rules.len(), 4);
        assert_eq!(out.rule("r7_copy").unwrap().sels.len(), 1);
        assert_eq!(out.rule("r7_copy").unwrap().sels[0].sid(), "Swi == 3");
        assert_eq!(out.rule("r7"), p.rule("r7"));
        // Added and deleted again: the patch cancels out — once the
        // selection delete, which runs after every other edit, is gone.
        let mut edits = patch.edits.clone();
        edits.push(Edit::DeleteRule { rule: "r7_copy".into() });
        assert!(matches!(
            assert_delta_is_apply(&p, &Patch::of(edits.clone())),
            Err(PatchError::NoSuchRule(_))
        ));
        edits.remove(2);
        assert_eq!(assert_delta_is_apply(&p, &Patch::of(edits)).unwrap(), p);
    }

    #[test]
    fn two_selection_deletes_on_one_rule_run_in_descending_order() {
        let p = fig2();
        for (first, second) in [(0, 1), (1, 0)] {
            let patch = Patch::of(vec![
                Edit::DeleteSelection { rule: "r6".into(), sel: first },
                Edit::SetSelectionOp { rule: "r6".into(), sel: 1, op: CmpOp::Lt },
                Edit::DeleteSelection { rule: "r6".into(), sel: second },
            ]);
            let out = assert_delta_is_apply(&p, &patch).unwrap();
            assert!(out.rule("r6").unwrap().sels.is_empty());
        }
        // Index 1 twice: the second delete finds one selection left.
        let twice = Patch::of(vec![
            Edit::DeleteSelection { rule: "r6".into(), sel: 1 },
            Edit::DeleteSelection { rule: "r6".into(), sel: 1 },
        ]);
        assert!(matches!(assert_delta_is_apply(&p, &twice), Err(PatchError::NoSuchSite(_))));
    }

    #[test]
    fn head_retarget_onto_a_table_of_another_arity_is_refused() {
        let mut p = fig2();
        p.rules.push(parse_rule("e1 Alert(@Swi,Hdr) :- PacketIn(@C,Swi,Hdr), Swi == 9.").unwrap());
        p.rules.push(parse_rule("e2 Log(@C,Swi) :- Alert(@Swi,Hdr), PacketIn(@C,Swi,Hdr).").unwrap());
        // FlowTable has two arguments, Alert — used by e1's head and e2's
        // body — one.
        let retarget = |rule: &str, table: &str| {
            Patch::single(Edit::SetHeadTable { rule: rule.into(), table: table.into() })
        };
        assert!(is_syntax_error(&assert_delta_is_apply(&p, &retarget("r5", "Alert"))));
        assert!(is_syntax_error(&assert_delta_is_apply(&p, &retarget("e1", "FlowTable"))));
        // e1's own use of Alert does not count against it, e2's does.
        assert!(is_syntax_error(&assert_delta_is_apply(&p, &retarget("e1", "PacketIn"))));
        assert!(assert_delta_is_apply(&p, &retarget("e1", "Log")).is_ok());
        assert!(assert_delta_is_apply(&p, &retarget("r5", "Fresh")).is_ok());
    }

    #[test]
    fn a_table_whose_only_user_goes_can_come_back_at_another_arity() {
        let mut p = fig2();
        p.rules.push(parse_rule("e1 Alert(@Swi,Hdr) :- PacketIn(@C,Swi,Hdr), Swi == 9.").unwrap());
        let wide = parse_rule("e3 Alert(@Swi,Hdr,Swi) :- PacketIn(@C,Swi,Hdr).").unwrap();
        // Next to e1 the wider Alert is an arity clash …
        let add = Patch::single(Edit::AddRule { rule: wide.clone() });
        assert!(is_syntax_error(&assert_delta_is_apply(&p, &add)));
        // … without e1 nothing else uses the table, and the name is free.
        let swap = Patch::of(vec![Edit::DeleteRule { rule: "e1".into() }, Edit::AddRule { rule: wide.clone() }]);
        let out = assert_delta_is_apply(&p, &swap).unwrap();
        assert_eq!(out.rules.last(), Some(&wide));
        // The same when e1 is moved off the table instead of deleted, and
        // the delta's own rules must still agree with one another.
        let moved = Patch::of(vec![
            Edit::SetHeadTable { rule: "e1".into(), table: "Other".into() },
            Edit::AddRule { rule: wide.clone() },
        ]);
        assert!(assert_delta_is_apply(&p, &moved).is_ok());
        let mut narrow = p.rule("e1").unwrap().clone();
        narrow.id = "e4".into();
        let clash = Patch::of(vec![
            Edit::DeleteRule { rule: "e1".into() },
            Edit::AddRule { rule: wide },
            Edit::AddRule { rule: narrow },
        ]);
        assert!(is_syntax_error(&assert_delta_is_apply(&p, &clash)));
    }

    #[test]
    fn a_declared_table_keeps_its_arity_with_no_user_left() {
        let mut p = fig2();
        p.catalog.insert(crate::Schema::state_keyed("Alert", 1, vec![0]));
        p.rules.push(parse_rule("e1 Alert(@Swi,Hdr) :- PacketIn(@C,Swi,Hdr), Swi == 9.").unwrap());
        let wide = parse_rule("e3 Alert(@Swi,Hdr,Swi) :- PacketIn(@C,Swi,Hdr).").unwrap();
        let swap = Patch::of(vec![Edit::DeleteRule { rule: "e1".into() }, Edit::AddRule { rule: wide }]);
        let refused = assert_delta_is_apply(&p, &swap).unwrap_err();
        assert!(refused.to_string().contains("declared with arity 1 but used with arity 2"), "{refused}");
        let narrow = parse_rule("e3 Alert(@Swi,Hdr) :- PacketIn(@C,Swi,Hdr).").unwrap();
        let swap = Patch::of(vec![Edit::DeleteRule { rule: "e1".into() }, Edit::AddRule { rule: narrow }]);
        assert!(assert_delta_is_apply(&p, &swap).is_ok());
    }

    #[test]
    fn a_program_is_held_to_its_declarations() {
        // A key column past the arity: the store would key `T` on its
        // location alone.
        let keys = parse_program("k", "materialize(T, infinity, 2, keys(5)).\nr1 B(@X,Y) :- T(@X,Y,Z).").unwrap();
        assert_eq!(keys.validate().unwrap_err(), "table `T`: key column 5 out of range for arity 2");
        // A rule using a declared table at another arity could never match
        // a tuple the engine accepts.
        let arity = parse_program("a", "materialize(T, infinity, 2, keys(0)).\nr1 B(@X,Y,Z,W) :- T(@X,Y,Z,W).").unwrap();
        assert_eq!(arity.validate().unwrap_err(), "table `T` declared with arity 2 but used with arity 3");
    }

    // -----------------------------------------------------------------
    // `applies_to_rule` / `describe_rule` ≡ the one-rule program

    /// Rules a tree's patch may edit; the last two are no valid program on
    /// their own (an unbound head variable, a table at two arities).
    const ONE_RULE: [&str; 5] = [
        "r1 Out(@Swi,Hdr,Prt) :- In(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.",
        "r1 Out(@Swi,Hdr,Prt) :- In(@C,Swi,H0), Swi == 2, H0 == 80, Hdr := 7, Prt := Hdr.",
        "r1 Out(@Swi,Prt) :- In(@C,Swi,Hdr), Cfg(@C,Prt), Swi + 1 < 9, Hdr != Prt.",
        "r1 Out(@Swi,Hdr,Prt) :- In(@C,Swi,Hdr), Swi == 2.",
        "r1 Out(@Swi,Hdr) :- In(@C,Swi,Hdr), In(@C,Swi), Swi == 2, Hdr == 80.",
    ];

    /// An edit of the kinds a tree builds — selection constants, variables,
    /// operators and deletions, assignments — and the other literal edits,
    /// now and then of another rule.
    fn literal_edit((kind, a, b): (usize, usize, usize)) -> Edit {
        let rule = if a % 7 == 6 { "r2".to_string() } else { "r1".to_string() };
        let expr = |i: usize| match i % 4 {
            0 => Expr::int(b as i64),
            1 => Expr::var("Swi"),
            2 => Expr::var("Hdr"),
            _ => Expr::var("Nope"),
        };
        let side = if b % 2 == 0 { ExprSide::Lhs } else { ExprSide::Rhs };
        match kind % 6 {
            0 => Edit::SetSelectionOp { rule, sel: b % 3, op: CmpOp::ALL[a % 6] },
            1 => Edit::SetSelectionExpr { rule, sel: b % 3, side, expr: expr(a) },
            2 => Edit::DeleteSelection { rule, sel: b % 3 },
            3 => Edit::SetAssignExpr { rule, var: ["Prt", "Hdr", "Nope"][a % 3].into(), expr: expr(b) },
            4 => Edit::DeletePredicate { rule, pred: b % 3 },
            _ => Edit::SetHeadTable { rule, table: ["Out", "In", "Cfg", "Fresh"][a % 4].into() },
        }
    }

    /// The oracle: the verdict and the description against a program
    /// holding `rule` alone, as the explorer once built it for every
    /// candidate.
    fn against_one_rule_program(patch: &Patch, rule: &Rule) -> (bool, String) {
        let mut alone = Program::new("one-rule");
        alone.rules.push(rule.clone());
        let verdict = ProgramOutline::new(&alone).is_ok_and(|o| patch.delta(&alone, &o).is_ok());
        (verdict, patch.describe(&alone))
    }

    /// An edit list of one of three shapes: the drawn edits; the drawn
    /// edits made literal, with a `DeletePredicate` or a `SetHeadTable`
    /// among them, so that the list is never judged by its sites alone; a
    /// selection deletion, then an edit of `rule`'s last selection or of
    /// one past it — past the end once the deletion has shifted the rest —
    /// then the other draws.
    fn shaped(rule: &Rule, shape: usize, draws: Vec<(usize, usize, usize)>) -> Patch {
        let (kind, a, b) = draws[0];
        let mut edits: Vec<Edit> = match shape {
            0 => draws.into_iter().map(literal_edit).collect(),
            1 => draws.into_iter().map(|(kind, a, b)| literal_edit((kind % 4, a, b))).collect(),
            _ => draws.into_iter().skip(1).map(literal_edit).collect(),
        };
        match shape {
            0 => {}
            1 => edits.insert(a % (edits.len() + 1), literal_edit((4 + kind % 2, a, b))),
            _ => {
                let last = rule.sels.len().saturating_sub(1);
                let past = literal_edit((kind % 3, a, last + b % 2));
                edits.splice(0..0, [Edit::DeleteSelection { rule: "r1".into(), sel: kind / 3 % (last + 1) }, past]);
            }
        }
        Patch::of(edits)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn a_rule_alone_judges_and_describes_as_its_one_rule_program(
            which in 0usize..ONE_RULE.len(),
            shape in 0usize..3,
            draws in proptest::collection::vec((0usize..6, 0usize..16, 0usize..16), 1..4),
        ) {
            let rule = parse_rule(ONE_RULE[which]).unwrap();
            let patch = shaped(&rule, shape, draws);
            let got = (patch.applies_to_rule(&rule), patch.describe_rule(&rule));
            proptest::prop_assert_eq!(got, against_one_rule_program(&patch, &rule), "patch {}", patch);
        }
    }

    #[test]
    fn the_literal_edits_reach_both_verdicts_on_every_valid_rule() {
        for (which, src) in ONE_RULE.iter().enumerate() {
            let rule = parse_rule(src).unwrap();
            let mut verdicts = std::collections::BTreeSet::new();
            for draw in (0..6).flat_map(|k| (0..16).flat_map(move |a| (0..4).map(move |b| (k, a, b)))) {
                let patch = Patch::single(literal_edit(draw));
                assert_eq!(patch.applies_to_rule(&rule), against_one_rule_program(&patch, &rule).0, "{patch}");
                verdicts.insert(patch.applies_to_rule(&rule));
            }
            let valid = which < 3;
            let want: &[bool] = if valid { &[false, true] } else { &[false] };
            assert_eq!(verdicts.into_iter().collect::<Vec<_>>(), want, "{src}");
        }
    }

    #[test]
    fn a_base_with_a_duplicated_id_has_no_outline() {
        // `Engine::new` refuses such a program through `validate`; the
        // outline refuses it with the same words, so no delta is ever taken
        // of it, and `apply` reports what `validate` says.
        let mut p = fig2();
        p.rules.push(p.rules[0].clone());
        let complaint = p.validate().unwrap_err();
        assert!(complaint.contains("duplicate rule id `r5`"));
        assert_eq!(ProgramOutline::new(&p).err(), Some(complaint.clone()));
        let patch = Patch::single(Edit::SetSelectionOp { rule: "r7".into(), sel: 0, op: CmpOp::Ne });
        assert_eq!(patch.apply(&p), Err(PatchError::WouldBreakSyntax(complaint)));
        assert!(is_syntax_error(&apply_by_clone_scan_validate(&patch, &p)));
        // The other two ways a base can be invalid.
        let unbound = parse_program("u", "r1 Out(@A,B) :- In(@A,C).").unwrap();
        assert_eq!(ProgramOutline::new(&unbound).err(), unbound.validate().err());
        let arities = parse_program("a", "r1 Out(@A,B) :- In(@A,B).\nr2 Out(@A) :- In(@A,B).").unwrap();
        assert_eq!(ProgramOutline::new(&arities).err(), arities.validate().err());
        assert!(ProgramOutline::new(&arities).is_err());
    }
}
