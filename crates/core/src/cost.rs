//! The repair cost model (§3.5).
//!
//! "We assign a low cost to common errors (such as changing a constant by
//! one or changing a == to a !=) and a high cost to unlikely errors (such
//! as writing an entirely new rule, or defining a new table)." The
//! magnitudes follow the bug-fix-pattern study the paper cites (Pan et
//! al., *Toward an understanding of bug fix patterns*): changes to an
//! existing predicate's literal dominate, operator flips are next,
//! structural edits are rare.
//!
//! The table is one set of constants: every scenario prices with it.

/// Changing a constant to an adjacent value (off-by-one, the single most
/// common fix pattern).
pub const CONST_ADJACENT: u32 = 1;
/// Changing a constant to any other value.
pub const CONST_OTHER: u32 = 2;
/// Changing a comparison operator.
pub const OP_CHANGE: u32 = 2;
/// Replacing a variable with another in-scope variable.
pub const VAR_CHANGE: u32 = 2;
/// Changing an assignment's right-hand side.
pub const ASSIGN_CHANGE: u32 = 2;
/// Deleting a selection predicate.
pub const DELETE_SELECTION: u32 = 3;
/// Deleting a body predicate.
pub const DELETE_PREDICATE: u32 = 4;
/// Inserting a base tuple (e.g. "manually installing a flow entry",
/// Table 2 candidate A).
pub const INSERT_TUPLE: u32 = 3;
/// Re-targeting a rule head to a different table.
pub const HEAD_CHANGE: u32 = 5;
/// Copying an existing rule and modifying the copy.
pub const COPY_RULE: u32 = 6;
/// Writing an entirely new rule.
pub const NEW_RULE: u32 = 8;

/// Cost of changing an integer constant from `old` to `new`.
pub fn const_change(old: i64, new: i64) -> u32 {
    if old.abs_diff(new) == 1 {
        CONST_ADJACENT
    } else {
        CONST_OTHER
    }
}

/// Exploration bounds: the "reasonable cut-off cost" and candidate budget
/// of §3.5 ("the algorithm would be run until some reasonable cut-off cost
/// is reached, or until the operator's patience runs out").
#[derive(Debug, Clone, Copy)]
pub struct SearchBudget {
    /// Candidates costing more than this are never emitted.
    pub max_cost: u32,
    /// At most this many candidates are returned (cheapest first).
    pub max_candidates: usize,
    /// Per-selection cap on enumerated replacement constants.
    pub consts_per_site: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget { max_cost: 7, max_candidates: 14, consts_per_site: 4 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_is_cheaper() {
        assert_eq!(const_change(2, 3), CONST_ADJACENT);
        assert_eq!(const_change(2, 1), CONST_ADJACENT);
        assert_eq!(const_change(2, 9), CONST_OTHER);
        assert_eq!(const_change(i64::MAX, i64::MIN), CONST_OTHER);
        assert_eq!(const_change(i64::MIN, i64::MIN + 1), CONST_ADJACENT);
        const _: () = assert!(CONST_ADJACENT < OP_CHANGE);
    }

    #[test]
    fn structural_changes_cost_more_than_literal_tweaks() {
        // The table is constant, so its order is checked at compile time.
        const _: () = assert!(OP_CHANGE < DELETE_SELECTION);
        const _: () = assert!(DELETE_SELECTION < DELETE_PREDICATE);
        const _: () = assert!(HEAD_CHANGE < COPY_RULE);
        const _: () = assert!(COPY_RULE < NEW_RULE);
    }

    #[test]
    fn budget_defaults_are_sane() {
        let b = SearchBudget::default();
        assert!(b.max_cost >= COPY_RULE);
        assert!(b.max_candidates >= 9); // Table 2 lists 9 for Q1
    }
}
