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
//! Costs are *data*, not code — the `micro` bench ablates them.


/// Cost of each elementary change. Lower = more plausible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Changing a constant to an adjacent value (off-by-one, the single
    /// most common fix pattern).
    pub const_adjacent: u32,
    /// Changing a constant to any other value.
    pub const_other: u32,
    /// Changing a comparison operator.
    pub op_change: u32,
    /// Replacing a variable with another in-scope variable.
    pub var_change: u32,
    /// Changing an assignment's right-hand side.
    pub assign_change: u32,
    /// Deleting a selection predicate.
    pub delete_selection: u32,
    /// Deleting a body predicate.
    pub delete_predicate: u32,
    /// Inserting a base tuple (e.g. "manually installing a flow entry",
    /// Table 2 candidate A).
    pub insert_tuple: u32,
    /// Re-targeting a rule head to a different table.
    pub head_change: u32,
    /// Copying an existing rule and modifying the copy.
    pub copy_rule: u32,
    /// Writing an entirely new rule.
    pub new_rule: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            const_adjacent: 1,
            const_other: 2,
            op_change: 2,
            var_change: 2,
            assign_change: 2,
            delete_selection: 3,
            delete_predicate: 4,
            insert_tuple: 3,
            head_change: 5,
            copy_rule: 6,
            new_rule: 8,
        }
    }
}

impl CostModel {
    /// Cost of changing an integer constant from `old` to `new`.
    pub fn const_change(&self, old: i64, new: i64) -> u32 {
        if (old - new).abs() == 1 {
            self.const_adjacent
        } else {
            self.const_other
        }
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
    /// Wall-clock deadline for the exploration, in milliseconds. `0`
    /// means unlimited. When the deadline fires, the search degrades
    /// gracefully: whatever candidates have been generated so far are
    /// ranked and returned (best-partial, never an error) — §3.5's
    /// "until the operator's patience runs out", made literal.
    pub time_budget_ms: u64,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget { max_cost: 7, max_candidates: 14, consts_per_site: 4, time_budget_ms: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_is_cheaper() {
        let c = CostModel::default();
        assert_eq!(c.const_change(2, 3), c.const_adjacent);
        assert_eq!(c.const_change(2, 1), c.const_adjacent);
        assert_eq!(c.const_change(2, 9), c.const_other);
        assert!(c.const_adjacent < c.op_change);
    }

    #[test]
    fn structural_changes_cost_more_than_literal_tweaks() {
        let c = CostModel::default();
        assert!(c.op_change < c.delete_selection);
        assert!(c.delete_selection < c.delete_predicate);
        assert!(c.head_change < c.copy_rule);
        assert!(c.copy_rule < c.new_rule);
    }

    #[test]
    fn budget_defaults_are_sane() {
        let b = SearchBudget::default();
        assert!(b.max_cost >= CostModel::default().copy_rule);
        assert!(b.max_candidates >= 9); // Table 2 lists 9 for Q1
    }
}
