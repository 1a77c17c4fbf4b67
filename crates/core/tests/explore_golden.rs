//! The explorer's answers, pinned: for every curated scenario, each
//! candidate in rank order — cost, description, the repair itself, the
//! trace — and the four search counters, compared with a checked-in
//! rendering. A rewrite of the search that moves a rank, a tie-break, a
//! description or a counter fails here with the lines that moved.
//!
//! To re-pin after a change that moves them on purpose: run the test, then
//! copy the file it names over `tests/golden/explore.txt`.

use mpr_core::debugger::Debugger;
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
        "== {}: trees {} pools_solved {} raw_candidates {} materialised {}",
        s.id, stats.trees, stats.pools_solved, stats.raw_candidates, stats.materialised
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

/// The lines that differ, after the common head and tail are set aside.
fn diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let head = want.iter().zip(&got).take_while(|(w, g)| w == g).count();
    let tail = want[head..].iter().rev().zip(got[head..].iter().rev()).take_while(|(w, g)| w == g).count();
    let mut out = format!("first difference at line {}\n", head + 1);
    for line in &want[head..want.len() - tail] {
        writeln!(out, "- {line}").unwrap();
    }
    for line in &got[head..got.len() - tail] {
        writeln!(out, "+ {line}").unwrap();
    }
    out
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
    let want = include_str!("golden/explore.txt");
    if got != want {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("explore.actual.txt");
        std::fs::write(&actual, &got).expect("the test's scratch directory is writable");
        panic!("the explorer's answers moved (full rendering in {}):\n{}", actual.display(), diff(want, &got));
    }
}
