//! The program side of a joint backtest is proportional to what the
//! candidates change, by count: the backtesting program holds the base
//! program's rules and, beside them, nothing but the candidates' modified
//! copies — the same handful whether the program has 100 rules or 900 —
//! and the debugger reaches the same verdicts from those deltas as from whole
//! patched programs run one by one by the reference (`common::reference`).

mod common;

use common::reference;
use sdn_meta_repair::backtest::mqo::tagged_program;
use sdn_meta_repair::core::debugger::Debugger;
use sdn_meta_repair::core::scenarios::Scenario;
use sdn_meta_repair::ndlog::{ProgramOutline, RuleDelta};

/// Repairs `q1_padded(lines)` both ways and returns `(candidates, owned
/// rules, coalesced copies)` of the backtesting program.
fn backtest_work(lines: usize) -> (usize, usize, usize) {
    let s = Scenario::q1_padded(lines);
    let dbg = Debugger::for_scenario(&s);
    let report = dbg.diagnose_and_repair().unwrap();
    assert!(report.backtested_jointly, "{lines}: the candidates replay jointly");
    assert_eq!(report.handed_back, 0, "{lines}: and none is handed back");

    // The backtesting program, as the debugger builds it.
    let (outline, setup) = (ProgramOutline::new(&s.program).unwrap(), dbg.setup());
    let deltas: Vec<RuleDelta> = report
        .outcomes
        .iter()
        .map(|o| o.candidate.repair.replay_input(&s.program, &outline, &setup).delta.expect("candidate applies"))
        .collect();
    let tagged = tagged_program(&s.program, &deltas);
    let base_rules = s.program.rules.as_ptr_range();
    let owned = tagged.variants.iter().filter(|v| !base_rules.contains(&(v.rule as *const _))).count();
    let copies: usize = deltas.iter().map(|d| d.rules().count()).sum();
    assert_eq!(owned, copies - tagged.coalesced, "{lines}: owned rules are the candidates' copies");
    assert_eq!(tagged.variants.len() - owned, s.program.rules.len(), "{lines}: every base rule once, borrowed");
    assert!(owned <= 2 * deltas.len(), "{lines}: {owned} owned rules for {} candidates", deltas.len());

    // The same candidates, each applied to a whole program and run on its
    // own by the reference, judged by the debugger.
    reference::assert_verdicts(&dbg, &s.program, &report);
    (deltas.len(), owned, tagged.coalesced)
}

#[test]
fn backtest_program_owns_only_what_the_candidates_change() {
    let small = backtest_work(100);
    let large = backtest_work(900);
    assert_eq!(small, large, "(candidates, owned rules, coalesced) at 100 and at 900 rules");
    // Thirteen patches of one rule each, no two alike, and a manual flow
    // entry.
    assert_eq!(small, (14, 13, 0));
}
