//! The CI `recovery` suite: kill-and-restart crash injection against the
//! WAL-journaled engine. The acceptance bar: ≥ 200 distinct crash points
//! across Q1–Q5, each a byte offset into the WAL of one journaled run
//! (the observation run, which is also a backtest replay of the buggy
//! program), every one recovering a prefix-consistent store with zero
//! panics — and the repair loop still converging after a restart.

use mpr_core::chaos;
use mpr_core::debugger::Debugger;
use mpr_core::scenarios::Scenario;
use mpr_runtime::{Durability, Options, WalOptions};
use std::collections::BTreeSet;

/// Engine options for the captures; `capture_wal` swaps the default
/// in-memory durability for a WAL.
fn opts() -> Options {
    Options { record_events: false, ..Options::default() }
}

/// How many injections of each scenario's workload the capture runs.
/// Enough to journal schema declarations, seeds, and real traffic-driven
/// derivations; small enough that a 200+-point sweep stays cheap.
const CAPTURE_INJECTIONS: usize = 6;

/// The flagship sweep: 5 scenarios × (40 randomized + 2 endpoint) crash
/// points = 210 kill-and-restarts, no two at the same byte of the same
/// log, every one prefix-consistent, none panicking or erroring.
#[test]
fn kill_sweep_is_prefix_consistent_everywhere() {
    let scenarios = Scenario::all();
    let report = chaos::kill_sweep(&scenarios, &opts(), 40, 0xdead, CAPTURE_INJECTIONS)
        .expect("kill sweep capture failed");
    let probes: BTreeSet<(&str, u64)> = report.outcomes.iter().map(|o| (o.scenario.as_str(), o.cut)).collect();
    assert_eq!(probes.len(), report.outcomes.len(), "a crash point was probed twice");
    assert!(probes.len() >= 200, "sweep too small: {} distinct crash points", probes.len());
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "{} of {} crash points failed; first: {:?}\n{}",
        failures.len(),
        report.outcomes.len(),
        failures.first(),
        report.render_table()
    );
    // The sweep must actually exercise both regimes: cuts that landed on
    // record boundaries (clean) and cuts that tore a record (lossy), and
    // restarts that replayed real state.
    assert!(report.outcomes.iter().any(|o| o.clean && o.ops_applied > 0));
    assert!(report.outcomes.iter().any(|o| !o.clean));
    assert!(report.outcomes.iter().any(|o| o.cut == 0 && o.ops_applied == 0));
}

/// Same inputs, same verdicts: the sweep is deterministic end to end
/// (captures, cut positions, recovery outcomes).
#[test]
fn kill_sweep_is_deterministic() {
    let scenarios = [Scenario::q1_copy_paste()];
    let a = chaos::kill_sweep(&scenarios, &opts(), 6, 7, CAPTURE_INJECTIONS).unwrap();
    let b = chaos::kill_sweep(&scenarios, &opts(), 6, 7, CAPTURE_INJECTIONS).unwrap();
    assert_eq!(a, b, "kill sweep is not deterministic");
}

/// Cuts on exact record-frame boundaries are indistinguishable from a
/// graceful shutdown and must recover `Clean`; cuts inside a frame tear
/// it and must report loss — but both recover the same whole-record
/// prefix.
#[test]
fn frame_boundary_cuts_are_clean_and_torn_cuts_report_loss() {
    let scenario = Scenario::q1_copy_paste();
    let capture =
        chaos::capture_wal(&scenario, &opts(), CAPTURE_INJECTIONS).expect("capture failed");
    let bounds = chaos::frame_boundaries(&capture.records);
    assert!(bounds.len() > 3, "capture journaled too little to probe");
    for (i, &b) in bounds.iter().enumerate().take(12) {
        let at_boundary = chaos::crash_at(&capture, b);
        assert!(at_boundary.clean, "cut at frame boundary {b} was not clean: {at_boundary:?}");
        assert!(at_boundary.prefix_consistent);
        assert_eq!(at_boundary.ops_applied, i);
        // A cut 4 bytes past a boundary lands mid-header of the next frame.
        if i + 1 < bounds.len() {
            let torn = chaos::crash_at(&capture, b + 4);
            assert!(!torn.clean, "mid-frame cut {} recovered clean", b + 4);
            assert!(torn.prefix_consistent, "torn cut diverged: {torn:?}");
            assert_eq!(torn.ops_applied, i, "torn cut replayed past the tear");
        }
    }
}

/// The end-to-end kill-and-restart property: kill the observation run at an
/// arbitrary (non-boundary) WAL offset on every scenario, restart from
/// the surviving prefix, fold the recovered durable state back into the
/// seeds, and the diagnose → repair → backtest loop still converges.
#[test]
fn repair_converges_after_kill_and_restart_on_every_scenario() {
    for scenario in Scenario::all() {
        let capture = chaos::capture_wal(&scenario, &opts(), 0)
            .unwrap_or_else(|e| panic!("{} capture failed: {e}", scenario.id));
        // ~61.8% through the log, nudged to avoid boundary alignment.
        let cut = (capture.wal_bytes.len() as u64 * 618 / 1000).saturating_add(3);
        let report = chaos::restart_repair(&scenario, &capture, cut)
            .unwrap_or_else(|e| panic!("{} restart repair failed: {e}", scenario.id));
        assert!(
            report.generated() > 0,
            "{} generated no candidates after kill-and-restart",
            scenario.id
        );
    }
}

/// The whole repair loop runs with durability on: every NDlog engine the
/// loop spins up journals to its own WAL under the configured directory,
/// the loop's results are unchanged, and nothing degrades. (Candidate
/// backtests that take the MQO shortcut evaluate through the tagged
/// engine, which is a derived, re-runnable computation and does not
/// journal — so the directory holds the observation engine's log plus one
/// per non-MQO replay, not necessarily one per candidate.)
#[test]
fn full_repair_loop_runs_under_wal_durability() {
    let scratch = std::env::temp_dir().join(format!("mpr-recovery-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let scenario = Scenario::q1_copy_paste();
    let mut dbg = Debugger::for_scenario(&scenario);
    dbg.engine_options.durability =
        Durability::Wal(WalOptions { dir: scratch.clone(), fsync: false, compact_every: 256 });
    let report = dbg.diagnose_and_repair().expect("repair loop failed under WAL durability");
    assert!(report.generated() > 0, "no candidates under WAL durability");
    assert!(report.accepted_count() > 0, "no accepted repairs under WAL durability");
    let engine_dirs: Vec<_> = std::fs::read_dir(&scratch)
        .expect("no WAL directory was created by the loop")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert!(!engine_dirs.is_empty(), "no journaled engines under {}", scratch.display());
    // Each engine dir holds a live log (or a compacted snapshot).
    for dir in &engine_dirs {
        let has_state = std::fs::read_dir(dir)
            .map(|d| d.filter_map(|e| e.ok()).count() > 0)
            .unwrap_or(false);
        assert!(has_state, "journaled engine dir {} is empty", dir.display());
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
