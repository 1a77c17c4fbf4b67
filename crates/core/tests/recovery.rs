//! The CI `recovery` suite: kill-and-restart crash injection against an
//! engine that logs its inputs to a WAL. The acceptance bar: ≥ 200
//! distinct crash points across Q1–Q5, each a byte offset into the WAL of
//! one run (the observation run, which is also a backtest replay of the
//! buggy program), every one recovering the store and execution log of an
//! engine fed the surviving inputs, with zero panics — and the repair loop
//! still converging after a restart.

use mpr_core::chaos;
use mpr_core::debugger::Debugger;
use mpr_core::scenarios::Scenario;
use mpr_core::World;
use mpr_provenance::explain_exist;
use mpr_runtime::{Durability, Options, WalOptions};
use std::collections::BTreeSet;

/// Engine options for the captures; `capture_wal` turns recording on and
/// swaps the default in-memory durability for a WAL.
fn opts() -> Options {
    Options::default()
}

/// How many injections of each scenario's workload the capture runs.
/// Enough to log the seeds and real traffic; small enough that a
/// 200+-point sweep stays cheap.
const CAPTURE_INJECTIONS: usize = 6;

/// The flagship sweep: 5 scenarios × (40 randomized + 2 endpoint) crash
/// points = 210 kill-and-restarts, no two at the same byte of the same
/// log, every one equal to the engine fed its surviving inputs (and the
/// full-length cut to the live engine), none panicking or erroring.
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
    // restarts that re-ran real inputs.
    assert!(report.outcomes.iter().any(|o| o.clean && o.inputs > 0));
    assert!(report.outcomes.iter().any(|o| !o.clean));
    assert!(report.outcomes.iter().any(|o| o.cut == 0 && o.inputs == 0));
    assert!(report.outcomes.iter().any(|o| o.cut == o.wal_len && o.inputs > 0));
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
/// it and must report loss — but both re-run the same whole input
/// records. Record 0 is the header, so the cut after frame `i` re-runs
/// `i - 1` inputs.
#[test]
fn frame_boundary_cuts_are_clean_and_torn_cuts_report_loss() {
    let scenario = Scenario::q1_copy_paste();
    let capture =
        chaos::capture_wal(&scenario, &opts(), CAPTURE_INJECTIONS).expect("capture failed");
    let bounds = chaos::frame_boundaries(&capture.records);
    assert!(bounds.len() > 3, "capture logged too little to probe");
    for (i, &b) in bounds.iter().enumerate().take(12) {
        let at_boundary = chaos::crash_at(&capture, b);
        assert!(at_boundary.clean, "cut at frame boundary {b} was not clean: {at_boundary:?}");
        assert!(at_boundary.prefix_consistent);
        assert_eq!(at_boundary.inputs, i.saturating_sub(1));
        // A cut 4 bytes past a boundary lands mid-header of the next frame.
        if i + 1 < bounds.len() {
            let torn = chaos::crash_at(&capture, b + 4);
            assert!(!torn.clean, "mid-frame cut {} recovered clean", b + 4);
            assert!(torn.prefix_consistent, "torn cut diverged: {torn:?}");
            assert_eq!(torn.inputs, i.saturating_sub(1), "torn cut re-ran past the tear");
        }
    }
}

/// A restart gives back the provenance a debugger reads: on Q1–Q5, after
/// the whole log and after a cut mid-way, the recovered engine's log
/// yields the explorer's input and the `explain_exist` tree of every live
/// derived tuple that the log of an engine fed the surviving inputs
/// yields.
#[test]
fn a_restart_gives_back_the_same_provenance_reads() {
    for scenario in Scenario::all().into_iter().filter(|s| s.id.starts_with('Q')) {
        let capture = chaos::capture_wal(&scenario, &opts(), 0)
            .unwrap_or_else(|e| panic!("{} capture failed: {e}", scenario.id));
        let len = capture.wal_bytes.len() as u64;
        // The mid cut tears the record after the middle frame boundary.
        let bounds = chaos::frame_boundaries(&capture.records);
        for cut in [len, bounds[bounds.len() / 2] + 3] {
            let what = format!("{} cut at {cut} of {len}", scenario.id);
            let (recovered, recovery) = chaos::recover_prefix(&capture, cut).unwrap();
            let oracle = chaos::fed_engine(&capture, &capture.records[..=recovery.inputs]).unwrap();
            assert_eq!(recovered.now(), oracle.now(), "{what}");
            let (got, want) = (World::from_history(&scenario, recovered.log()), World::from_history(&scenario, oracle.log()));
            assert_eq!(got.triggers, want.triggers, "{what}: triggers");
            assert_eq!(got.state, want.state, "{what}: state");
            assert_eq!(got.derivations, want.derivations, "{what}: derivations");
            let derived: Vec<_> = oracle.store().dump().into_iter().filter(|&(_, _, d)| d > 0).map(|(t, ..)| t).collect();
            assert!(!derived.is_empty(), "{what}: nothing derived");
            for tuple in &derived {
                let tree = explain_exist(oracle.log(), tuple, oracle.now());
                assert!(tree.is_some(), "{what}: {tuple} is live but unexplained");
                assert_eq!(explain_exist(recovered.log(), tuple, recovered.now()), tree, "{what}: {tuple}");
            }
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
/// loop spins up logs to its own WAL under the configured directory, the
/// loop's results are unchanged, and nothing degrades. (Candidate
/// backtests that take the MQO shortcut evaluate through the tagged
/// engine, which is a derived, re-runnable computation and does not log —
/// so the directory holds the observation engine's log plus one per
/// non-MQO replay, not necessarily one per candidate.)
#[test]
fn full_repair_loop_runs_under_wal_durability() {
    let scratch = std::env::temp_dir().join(format!("mpr-recovery-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let scenario = Scenario::q1_copy_paste();
    let mut dbg = Debugger::for_scenario(&scenario);
    dbg.engine_options.durability = Durability::Wal(WalOptions::new(&scratch));
    let report = dbg.diagnose_and_repair().expect("repair loop failed under WAL durability");
    assert!(report.generated() > 0, "no candidates under WAL durability");
    assert!(report.accepted_count() > 0, "no accepted repairs under WAL durability");
    let engine_dirs: Vec<_> = std::fs::read_dir(&scratch)
        .expect("no WAL directory was created by the loop")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert!(!engine_dirs.is_empty(), "no WAL engines under {}", scratch.display());
    // Each engine dir holds a log.
    for dir in &engine_dirs {
        let has_state = std::fs::read_dir(dir)
            .map(|d| d.filter_map(|e| e.ok()).count() > 0)
            .unwrap_or(false);
        assert!(has_state, "WAL engine dir {} is empty", dir.display());
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
