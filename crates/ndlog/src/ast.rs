//! Abstract syntax of NDlog programs.
//!
//! The grammar follows §2.1 and Fig. 3 of the paper. A *rule* has the shape
//!
//! ```text
//! r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
//! ```
//!
//! i.e. a head atom, a set of body predicates (joins), a set of *selection
//! predicates* (comparisons), and a set of *assignments*.

use crate::patch::ProgramOutline;
use crate::schema::Catalog;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators allowed in selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// All operators, in a stable order (used by the repair generator to
    /// enumerate operator mutations).
    pub const ALL: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// Evaluate the comparison on two values. Integers compare numerically;
    /// strings and booleans support all orderings via their `Ord` instance
    /// (lexicographic for strings). Mixed-type comparisons are equal-never /
    /// unequal-always, which keeps repair search total.
    pub fn eval(&self, l: &Value, r: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = match (l, r) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => {
                // Mixed types: only Eq/Ne are meaningful.
                return match self {
                    CmpOp::Eq => false,
                    CmpOp::Ne => true,
                    _ => false,
                };
            }
        };
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The negated operator (`==` ↔ `!=`, `<` ↔ `>=`, ...).
    pub fn negate(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Source form.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Binary arithmetic operators usable inside expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` (integer addition; string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division)
    Div,
    /// `%`
    Mod,
}

impl BinOp {
    /// Source form.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A term in an atom argument position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable, e.g. `Swi`.
    Var(String),
    /// A constant, e.g. `80`.
    Const(Value),
}

impl Term {
    /// Variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Constant value, if this is a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Const(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => f.write_str(v),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An atom: `Table(@Loc, Arg1, ..., ArgN)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Table name.
    pub table: String,
    /// Location term (the `@` column).
    pub loc: Term,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(table: impl Into<String>, loc: Term, args: Vec<Term>) -> Self {
        Atom { table: table.into(), loc, args }
    }

    /// All variables appearing in this atom (location included).
    pub fn vars(&self) -> BTreeSet<String> {
        self.var_names().map(String::from).collect()
    }

    /// The same variables, borrowed, in column order (repeats included).
    pub fn var_names(&self) -> impl Iterator<Item = &str> {
        std::iter::once(&self.loc).chain(&self.args).filter_map(Term::as_var)
    }

    /// [`Program::validate`]'s arity check of one atom, against `arity`:
    /// its table's declaration in `catalog`, or else the arity the table
    /// is used with elsewhere.
    pub(crate) fn check_arity(&self, arity: usize, catalog: &Catalog) -> Result<(), String> {
        if arity == self.args.len() {
            return Ok(());
        }
        let (table, used) = (&self.table, self.args.len());
        Err(match catalog.get(table) {
            Some(_) => format!("table `{table}` declared with arity {arity} but used with arity {used}"),
            None => format!("table `{table}` used with arities {arity} and {used}"),
        })
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(@{}", self.table, self.loc)?;
        for a in &self.args {
            write!(f, ",{a}")?;
        }
        write!(f, ")")
    }
}

/// An expression: constants, variables, arithmetic, and built-in calls.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Literal constant.
    Const(Value),
    /// Variable reference.
    Var(String),
    /// Binary arithmetic.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Built-in function call: `f_unique()`, the one built-in.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Self {
        Expr::Const(Value::Int(v))
    }

    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    /// All variables mentioned in the expression.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.for_each_var(&mut |v| {
            out.insert(v.to_string());
        });
        out
    }

    /// Call `f` on every variable the expression reads, left to right,
    /// repeats included, borrowed from it.
    pub fn for_each_var<'e>(&'e self, f: &mut impl FnMut(&'e str)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => f(v),
            Expr::Binary(_, l, r) => {
                l.for_each_var(f);
                r.for_each_var(f);
            }
            Expr::Call(_, args) => args.iter().for_each(|a| a.for_each_var(f)),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(v) => f.write_str(v),
            Expr::Binary(op, l, r) => {
                // Parenthesize nested binaries so precedence survives the
                // round trip without a precedence-aware printer.
                let fmt_side = |f: &mut fmt::Formatter<'_>, e: &Expr| -> fmt::Result {
                    match e {
                        Expr::Binary(..) => write!(f, "({e})"),
                        _ => write!(f, "{e}"),
                    }
                };
                fmt_side(f, l)?;
                write!(f, " {op} ")?;
                fmt_side(f, r)
            }
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A selection predicate: `lhs op rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selection {
    /// Left-hand expression.
    pub lhs: Expr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand expression.
    pub rhs: Expr,
}

impl Selection {
    /// Build a selection.
    pub fn new(lhs: Expr, op: CmpOp, rhs: Expr) -> Self {
        Selection { lhs, op, rhs }
    }

    /// The selection ID (SID) used by the meta model: the source text of the
    /// predicate, e.g. `"Swi == 2"`.
    pub fn sid(&self) -> String {
        self.to_string()
    }

    /// All variables mentioned.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut v = self.lhs.vars();
        v.extend(self.rhs.vars());
        v
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// An assignment: `Var := expr`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assign {
    /// Target variable.
    pub var: String,
    /// Source expression.
    pub expr: Expr,
}

impl Assign {
    /// Build an assignment.
    pub fn new(var: impl Into<String>, expr: Expr) -> Self {
        Assign { var: var.into(), expr }
    }
}

impl fmt::Display for Assign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := {}", self.var, self.expr)
    }
}

/// One derivation rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Rule identifier (`r1`, `h2`, ...). Unique within a program.
    pub id: String,
    /// Head atom.
    pub head: Atom,
    /// Body predicates (joined).
    pub body: Vec<Atom>,
    /// Selection predicates.
    pub sels: Vec<Selection>,
    /// Assignments, evaluated in order after the join.
    pub assigns: Vec<Assign>,
}

impl Rule {
    /// Build a rule.
    pub fn new(
        id: impl Into<String>,
        head: Atom,
        body: Vec<Atom>,
        sels: Vec<Selection>,
        assigns: Vec<Assign>,
    ) -> Self {
        Rule { id: id.into(), head, body, sels, assigns }
    }

    /// Variables bound by the body predicates (join variables).
    pub fn body_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for a in &self.body {
            out.extend(a.vars());
        }
        out
    }

    /// Head variables that are bound nowhere in the body — a validity error.
    pub fn unbound_head_vars(&self) -> BTreeSet<&str> {
        let bound = Binders::of(self);
        self.head.var_names().filter(|v| !bound.bound(v)).collect()
    }

    /// [`Program::validate`]'s check of one rule's head, against the rule's
    /// `bound` variables.
    pub(crate) fn check_head_bound(&self, bound: &Binders) -> Result<(), String> {
        if self.head.var_names().all(|v| bound.bound(v)) {
            return Ok(());
        }
        Err(format!("rule `{}`: unbound head variables {:?}", self.id, self.unbound_head_vars()))
    }

    /// Call `f` on every constant of the rule — in selections (left side
    /// first), assignments, then head and body arguments, each expression
    /// left to right — cloning no value: the explorer's domain scan walks
    /// every rule of the program.
    pub fn for_each_constant<'a>(&'a self, mut f: impl FnMut(&'a Value)) {
        fn walk<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Value)) {
            match e {
                Expr::Const(v) => f(v),
                Expr::Var(_) => {}
                Expr::Binary(_, l, r) => {
                    walk(l, f);
                    walk(r, f);
                }
                Expr::Call(_, args) => args.iter().for_each(|a| walk(a, f)),
            }
        }
        let exprs = self.sels.iter().flat_map(|s| [&s.lhs, &s.rhs]).chain(self.assigns.iter().map(|a| &a.expr));
        for e in exprs {
            walk(e, &mut f);
        }
        let args = self.head.args.iter().chain(self.body.iter().flat_map(|a| &a.args));
        args.filter_map(Term::as_const).for_each(f);
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} :- ", self.id, self.head)?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, ", ")
            }
        };
        for a in &self.body {
            sep(f)?;
            write!(f, "{a}")?;
        }
        for s in &self.sels {
            sep(f)?;
            write!(f, "{s}")?;
        }
        for a in &self.assigns {
            sep(f)?;
            write!(f, "{a}")?;
        }
        write!(f, ".")
    }
}

/// A rule's binding analysis: which variables its body atoms bind, and
/// which its assignments bind, each for those after it. Every check that
/// a variable is bound before it is read — the head's
/// ([`Program::validate`]), the assignments' and the selections' (the
/// engine's) — asks one of these.
#[derive(Debug, Clone, Copy)]
pub struct Binders<'a> {
    body: &'a [Atom],
    assigns: &'a [Assign],
}

impl<'a> Binders<'a> {
    /// The analysis of `rule`.
    pub fn of(rule: &'a Rule) -> Self {
        Binders { body: &rule.body, assigns: &rule.assigns }
    }

    /// Is `v` bound by the body or by one of the first `assigns`
    /// assignments?
    #[inline]
    pub fn bound_before(&self, v: &str, assigns: usize) -> bool {
        self.body.iter().any(|a| a.var_names().any(|b| same_name(b, v)))
            || self.assigns[..assigns].iter().any(|a| same_name(&a.var, v))
    }

    /// Is `v` bound by the body or by any assignment?
    #[inline]
    pub fn bound(&self, v: &str) -> bool {
        self.bound_before(v, self.assigns.len())
    }
}

/// `a == b` for variable names: a few bytes each, compared in place
/// rather than through a call to the C library's `memcmp`, which costs
/// more than the comparison. The binding analysis makes dozens per rule.
#[inline]
pub fn same_name(a: &str, b: &str) -> bool {
    a.len() == b.len() && a.bytes().zip(b.bytes()).all(|(x, y)| x == y)
}

/// Which side of a selection an expression sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExprSide {
    /// Left-hand side.
    Lhs,
    /// Right-hand side.
    Rhs,
}

/// A full NDlog program: schema declarations plus rules.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Program name (for reports).
    pub name: String,
    /// Declared table schemas.
    pub catalog: Catalog,
    /// Rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program { name: name.into(), catalog: Catalog::new(), rules: Vec::new() }
    }

    /// Find a rule by id.
    pub fn rule(&self, id: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.id == id)
    }

    /// Mutable access to a rule by id.
    pub fn rule_mut(&mut self, id: &str) -> Option<&mut Rule> {
        self.rules.iter_mut().find(|r| r.id == id)
    }

    /// Rules whose head derives into `table`.
    pub fn rules_for_table(&self, table: &str) -> Vec<&Rule> {
        self.rules.iter().filter(|r| r.head.table == table).collect()
    }

    /// All table names mentioned anywhere (heads and bodies).
    pub fn tables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for r in &self.rules {
            out.insert(r.head.table.clone());
            for b in &r.body {
                out.insert(b.table.clone());
            }
        }
        out
    }

    /// Tables that appear only in bodies — they must be fed externally
    /// ("base tables", §2.1).
    pub fn base_tables(&self) -> BTreeSet<String> {
        let heads: BTreeSet<_> = self.rules.iter().map(|r| r.head.table.clone()).collect();
        self.tables().into_iter().filter(|t| !heads.contains(t)).collect()
    }

    /// Validate the program: every declared key column within its table's
    /// arity, unique rule ids, no unbound head variables, and one arity per
    /// table — the declared one, if the table is declared. The checks are
    /// [`ProgramOutline::new`]'s.
    pub fn validate(&self) -> Result<(), String> {
        ProgramOutline::new(self).map(|_| ())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in self.catalog.iter() {
            writeln!(f, "{s}")?;
        }
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_r7() -> Rule {
        // r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
        Rule::new(
            "r7",
            Atom::new(
                "FlowTable",
                Term::Var("Swi".into()),
                vec![Term::Var("Hdr".into()), Term::Var("Prt".into())],
            ),
            vec![Atom::new(
                "PacketIn",
                Term::Var("C".into()),
                vec![Term::Var("Swi".into()), Term::Var("Hdr".into())],
            )],
            vec![
                Selection::new(Expr::var("Swi"), CmpOp::Eq, Expr::int(2)),
                Selection::new(Expr::var("Hdr"), CmpOp::Eq, Expr::int(80)),
            ],
            vec![Assign::new("Prt", Expr::int(2))],
        )
    }

    #[test]
    fn display_matches_paper_syntax() {
        assert_eq!(
            fig2_r7().to_string(),
            "r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2."
        );
    }

    #[test]
    fn cmp_op_eval_and_negate() {
        use Value::Int;
        assert!(CmpOp::Eq.eval(&Int(2), &Int(2)));
        assert!(CmpOp::Ne.eval(&Int(2), &Int(3)));
        assert!(CmpOp::Lt.eval(&Int(2), &Int(3)));
        assert!(CmpOp::Le.eval(&Int(3), &Int(3)));
        assert!(CmpOp::Gt.eval(&Int(4), &Int(3)));
        assert!(CmpOp::Ge.eval(&Int(3), &Int(3)));
        for op in CmpOp::ALL {
            // negation flips the outcome on every integer pair
            for (a, b) in [(1, 2), (2, 2), (3, 2)] {
                assert_ne!(
                    op.eval(&Int(a), &Int(b)),
                    op.negate().eval(&Int(a), &Int(b)),
                    "{op} on ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn mixed_type_comparisons_are_total() {
        assert!(!CmpOp::Eq.eval(&Value::Int(1), &Value::str("1")));
        assert!(CmpOp::Ne.eval(&Value::Int(1), &Value::str("1")));
        assert!(!CmpOp::Lt.eval(&Value::Int(1), &Value::str("1")));
    }

    #[test]
    fn rule_var_analysis() {
        let r = fig2_r7();
        assert!(r.body_vars().contains("Swi"));
        assert!(r.body_vars().contains("C"));
        assert!(r.unbound_head_vars().is_empty());
    }

    #[test]
    fn unbound_head_var_detected() {
        let mut r = fig2_r7();
        r.assigns.clear(); // Prt no longer bound
        assert_eq!(r.unbound_head_vars().into_iter().collect::<Vec<_>>(), vec!["Prt"]);
    }

    #[test]
    fn constant_enumeration_finds_all_sites() {
        let mut r = fig2_r7();
        let visit = |r: &Rule| {
            let mut visited = Vec::new();
            r.for_each_constant(|v| visited.push(v.to_string()));
            visited
        };
        // Swi == 2 (rhs), Hdr == 80 (rhs), Prt := 2
        assert_eq!(visit(&r), ["2", "80", "2"]);
        // Nested in arithmetic, in the head, in the body.
        r.sels[0].lhs = Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::Binary(BinOp::Add, Box::new(Expr::var("A")), Box::new(Expr::int(5)))),
            Box::new(Expr::int(6)),
        );
        r.sels[0].rhs = Expr::int(4);
        r.head.args[0] = Term::Const(Value::Int(7));
        r.body[0].args[1] = Term::Const(Value::Int(9));
        assert_eq!(r.sels[0].to_string(), "(A + 5) * 6 == 4");
        assert_eq!(visit(&r), ["5", "6", "4", "80", "2", "7", "9"]);
    }

    #[test]
    fn program_base_tables_and_validation() {
        let mut p = Program::new("test");
        p.rules.push(fig2_r7());
        assert!(p.validate().is_ok());
        assert_eq!(
            p.base_tables().into_iter().collect::<Vec<_>>(),
            vec!["PacketIn".to_string()]
        );
        assert!(p.rule("r7").is_some());
        assert!(p.rule("r8").is_none());
        assert_eq!(p.rules_for_table("FlowTable").len(), 1);

        // Duplicate id rejected.
        p.rules.push(fig2_r7());
        assert!(p.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut p = Program::new("test");
        p.rules.push(fig2_r7());
        let mut r2 = fig2_r7();
        r2.id = "r8".into();
        r2.head.args.push(Term::Const(Value::Int(1))); // FlowTable now arity 3
        p.rules.push(r2);
        assert!(p.validate().unwrap_err().contains("arities"));
    }
}
