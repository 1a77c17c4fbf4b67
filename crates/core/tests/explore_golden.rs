//! The loop's answers, pinned, as two checked-in renderings.
//!
//! `golden/explore.txt` — the explorer's: for every curated scenario, each
//! candidate in rank order — cost, description, the repair itself, the
//! trace — and the four search counters. A rewrite of the search that
//! moves a rank, a tie-break, a description or a counter fails here with
//! the lines that moved.
//!
//! `golden/repairs.txt` — the paper's Tables 1, 2, 3 and 6, i.e. what is
//! backtested out of those lists: per scenario `generated/accepted`,
//! whether the candidates were backtested jointly and how many were handed
//! back, the rank of the reference fix, the accepted order, and per
//! candidate cost, description, effectiveness, the KS statistic against
//! its critical value (exact) and the verdict.
//!
//! To re-pin after a change that moves them on purpose: run the test, then
//! copy the file it names over the golden it names.

use mpr_core::debugger::{repair_scenario, Debugger};
use mpr_core::explore::{generate_existing, generate_missing, World};
use mpr_core::scenarios::{Scenario, Symptom};
use std::fmt::Write;

fn render(s: &Scenario, out: &mut String) {
    let recording = Debugger::for_scenario(s).record().expect("scenario runs");
    let world = World::from_history(s, &recording.log);
    let (candidates, stats) = match &s.symptom {
        Symptom::Missing(goal) => generate_missing(&world, goal),
        Symptom::Existing(culprit) => generate_existing(&world, culprit),
    };
    writeln!(
        out,
        "== {}: trees {} rules_priced_away {} pools_solved {} raw_candidates {} materialised {}",
        s.id, stats.trees, stats.rules_priced_away, stats.pools_solved, stats.raw_candidates, stats.materialised
    )
    .unwrap();
    for (rank, c) in candidates.iter().enumerate() {
        writeln!(out, "#{rank} cost {} | {}", c.cost, c.description).unwrap();
        writeln!(out, "   {:?}", c.repair).unwrap();
        for line in &c.trace {
            writeln!(out, "   > {line}").unwrap();
        }
    }
}

/// The lines that moved, each with its line number in its own file: a
/// longest-common-subsequence diff, so that two scenarios that move far
/// apart print their own lines and not everything between them.
fn diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    // lcs[i][j]: length of the longest common subsequence of want[i..], got[j..].
    let mut lcs = vec![vec![0u32; got.len() + 1]; want.len() + 1];
    for i in (0..want.len()).rev() {
        for j in (0..got.len()).rev() {
            lcs[i][j] = if want[i] == got[j] { lcs[i + 1][j + 1] + 1 } else { lcs[i + 1][j].max(lcs[i][j + 1]) };
        }
    }
    let (mut i, mut j, mut out) = (0, 0, String::new());
    while i < want.len() || j < got.len() {
        if i < want.len() && j < got.len() && want[i] == got[j] {
            (i, j) = (i + 1, j + 1);
        } else if j == got.len() || (i < want.len() && lcs[i + 1][j] >= lcs[i][j + 1]) {
            writeln!(out, "-{:<4} {}", i + 1, want[i]).unwrap();
            i += 1;
        } else {
            writeln!(out, "+{:<4} {}", j + 1, got[j]).unwrap();
            j += 1;
        }
    }
    out
}

/// Fail with the moved lines, leaving the full rendering beside the build.
fn check(name: &str, want: &str, got: &str) {
    if got != want {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
        std::fs::write(&actual, got).expect("the test's scratch directory is writable");
        panic!(
            "tests/golden/{name}.txt moved (full rendering in {}):\n{}",
            actual.display(),
            diff(want, got)
        );
    }
}

#[test]
fn the_explorer_answers_as_pinned() {
    let q1 = Scenario::q1_copy_paste();
    let mut scenarios = Scenario::all();
    scenarios.push(Scenario::fig7_harmful_entry());
    scenarios.push(q1.trema_variant());
    scenarios.push(q1.pyretic_variant().expect("Q1 has a Pyretic port"));
    scenarios.extend([100, 300, 900].map(Scenario::q1_padded));
    scenarios.push(Scenario::q1_on_fabric(10_000));
    let mut got = String::new();
    for s in &scenarios {
        render(s, &mut got);
    }
    check("explore", include_str!("golden/explore.txt"), &got);
}

/// One scenario's rows of Tables 1/2/3/6.
fn render_repairs(s: &Scenario, out: &mut String) {
    let report = repair_scenario(s);
    let rank = report.outcomes.iter().position(|o| o.candidate.description.contains(&s.reference_fix));
    writeln!(
        out,
        "== {}: {}/{} backtested_jointly {} handed_back {} reference_fix {} accepted {:?}",
        s.id,
        report.generated(),
        report.accepted_count(),
        report.backtested_jointly,
        report.handed_back,
        rank.map_or("-".to_string(), |r| format!("#{r}")),
        report.accepted
    )
    .unwrap();
    for (rank, o) in report.outcomes.iter().enumerate() {
        let verdict = match (o.accepted, o.effective) {
            (true, _) => "accepted",
            (false, true) => "rejected: side effects",
            (false, false) => "rejected: ineffective",
        };
        writeln!(
            out,
            "#{rank} cost {} | {} | effective {} ks.d {:?} ks.critical {:?} | {verdict}",
            o.candidate.cost, o.candidate.description, o.effective, o.ks.d, o.ks.critical
        )
        .unwrap();
    }
}

#[test]
fn the_repairs_are_as_pinned() {
    let all = Scenario::all();
    let mut got = String::new();
    for s in all.iter().chain(&[Scenario::fig7_harmful_entry()]) {
        render_repairs(s, &mut got);
    }
    for s in &all {
        render_repairs(&s.trema_variant(), &mut got);
    }
    for s in &all {
        match s.pyretic_variant() {
            Some(py) => render_repairs(&py, &mut got),
            // Q4: the Pyretic runtime prevents the bug class (Table 3's `-`).
            None => writeln!(got, "== {}-pyretic: -", s.id).unwrap(),
        }
    }
    check("repairs", include_str!("golden/repairs.txt"), &got);
}
