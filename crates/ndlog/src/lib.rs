//! # mpr-ndlog — the NDlog controller language
//!
//! Network Datalog (NDlog, Loo et al., CACM'09) is the declarative language
//! the paper uses to express SDN controller programs (§2.1): a program is a
//! set of rules `Head(@Loc, ...) :- Body..., selections..., assignments...`
//! over tuples that live on nodes (`@` is the location specifier).
//!
//! This crate provides the *language substrate* of the reproduction:
//!
//! - [`value::Value`] / [`tuple::Tuple`] — the data model (integers,
//!   strings, booleans, and the `*` wildcard);
//! - [`ast`] — programs, rules, atoms, expressions, selections, assignments;
//! - [`parser`] — a recursive-descent parser for the concrete syntax of
//!   Fig. 2/Fig. 3, plus `materialize(...)` schema declarations;
//! - [`eval`] — expression/selection evaluation with the one built-in
//!   function, `f_unique()`;
//! - [`patch`] — program edits, the concrete form of repairs (Table 2);
//! - [`schema`] — table schemas (state vs event, primary keys).
//!
//! The evaluation *engine* lives in `mpr-runtime`; the repair search — the
//! one meta model — lives in `mpr-core`.

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod hash;
pub mod lexer;
pub mod parser;
pub mod patch;
pub mod schema;
pub mod tuple;
pub mod value;

pub use ast::{
    Assign, Atom, BinOp, Binders, CmpOp, Expr, ExprSide, Program, Rule, Selection, Term,
};
pub use error::{EvalError, ParseError, PatchError};
pub use eval::{CountingFuncs, Env, FuncHost, PureFuncs};
pub use parser::{parse_program, parse_rule};
pub use patch::{Edit, Patch, ProgramOutline, RuleDelta};
pub use schema::{Catalog, Persistence, Schema};
pub use tuple::{SignedTuple, Tuple};
pub use value::Value;
