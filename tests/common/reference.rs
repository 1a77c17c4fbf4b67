//! The one reference every network-level differential takes its expected
//! counters, clock, log, tables and verdicts from: a fresh controller on a
//! pipelined engine, a fresh network, and one `inject` + `run` per packet.
//! No memo runs in it — not the simulator's injection memo (which `drive`,
//! so the observation run and the backtest's fallback, goes through), not
//! the batch engine's step memo or quiet steps, not the joint replay's.
//! `differential.rs`'s engine-level lockstep has an oracle of its own.

use sdn_meta_repair::backtest::mqo::TableFootprint;
use sdn_meta_repair::backtest::replay::{BacktestSetup, ReplayOutcome};
use sdn_meta_repair::core::debugger::{CandidateOutcome, Debugger, RepairReport};
use sdn_meta_repair::core::repair::Candidate;
use sdn_meta_repair::core::scenarios::Scenario;
use sdn_meta_repair::ndlog::{Program, ProgramOutline};
use sdn_meta_repair::runtime::{ExecLog, Options};
use sdn_meta_repair::sdn::controller::{Controller, NdlogController};
use sdn_meta_repair::sdn::flowtable::FlowEntry;
use sdn_meta_repair::sdn::{SimStats, Simulation};
use sdn_meta_repair::trace::workload::Injection;
use sdn_meta_repair::EvalStrategy;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One `inject` + `run` per packet of `workload`, for any controller.
pub fn inject_and_run<C: Controller>(sim: &mut Simulation<C>, workload: &[Injection]) {
    for (src, pkt) in workload {
        sim.inject(*src, pkt.clone());
        sim.run();
    }
}

/// `(records, events, FNV-1a of their Debug lines)` of an execution log.
pub type Digest = (usize, usize, u64);

/// The [`Digest`] of `log`.
pub fn digest(log: &ExecLog) -> Digest {
    let lines = log.records().map(|r| format!("{r:?}\n")).chain(log.events().map(|e| format!("{e:?}\n")));
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    let h = lines.fold(0xcbf2_9ce4_8422_2325u64, |h, line| line.bytes().fold(h, fnv));
    (log.records().len(), log.len(), h)
}

/// What a reference run leaves.
#[derive(Debug)]
pub struct Run {
    pub stats: SimStats,
    pub now: u64,
    /// The controller's log, digested; `None` unless the run recorded.
    pub log: Option<Digest>,
    /// Per switch with a table, its entries in match order.
    pub tables: Vec<(i64, Vec<FlowEntry>)>,
}

/// Run `program` as the controller of `setup`'s network over its workload:
/// a pipelined engine on the setup's other options, seeded with its seeds,
/// the proactive routes if it asks for them, then `extra` installed by
/// hand, then one `inject` + `run` per packet. An `Err` is the engine's
/// refusal of the program or its seeds.
pub fn run(setup: &BacktestSetup, program: impl Into<Arc<Program>>, extra: &[(i64, FlowEntry)], record: bool) -> Result<Run, String> {
    let opts = Options { strategy: EvalStrategy::Pipelined, record_events: record, ..setup.engine.clone() };
    let mut ctrl = NdlogController::with_options(program, setup.codec.clone(), opts).map_err(|e| e.to_string())?;
    ctrl.seed(setup.seeds.clone()).map_err(|e| e.to_string())?;
    let mut sim = Simulation::new(setup.topology.clone(), ctrl, setup.config.clone());
    if setup.proactive_routes {
        sim.install_proactive_routes();
    }
    for (sw, entry) in extra {
        sim.tables.install(*sw, entry.clone());
    }
    inject_and_run(&mut sim, &setup.workload);
    assert_eq!(sim.answered(), 0, "the reference answers nothing from a memo");
    let table = |sw: &i64| Some((*sw, sim.tables.get(sw)?.iter().cloned().collect()));
    let tables = setup.topology.switches.iter().filter_map(table).collect();
    let log = record.then(|| digest(sim.controller().exec_log()));
    Ok(Run { stats: sim.stats.clone(), now: sim.now(), log, tables })
}

/// Each of `candidates` read as the debugger reads it
/// (`Repair::replay_input`) and run on its own; `None` where its patch does
/// not apply or the engine refuses its program.
pub fn runs<'c>(base: &Program, setup: &BacktestSetup, candidates: impl IntoIterator<Item = &'c Candidate>) -> Vec<Option<Run>> {
    let outline = ProgramOutline::new(base).expect("the base program is valid");
    let one = |c: &Candidate| {
        let input = c.repair.replay_input(base, &outline, setup);
        let seeds = input.seeds.unwrap_or_else(|| setup.seeds.clone());
        let setup = BacktestSetup { seeds, ..setup.clone() };
        run(&setup, input.delta.ok()?.overlay(base), &input.extra_flows, false).ok()
    };
    candidates.into_iter().map(one).collect()
}

/// Holds `report`'s verdicts — per candidate its description, cost,
/// effective, KS distance and accepted — and its accepted order to those
/// `Debugger::judge` gives the reference's outcomes (`base` is the
/// scenario's program).
pub fn assert_verdicts(dbg: &Debugger, base: &Program, report: &RepairReport) {
    let candidates: Vec<Candidate> = report.outcomes.iter().map(|o| o.candidate.clone()).collect();
    let outcomes = runs(base, &dbg.setup(), &candidates).into_iter().map(|r| Some(ReplayOutcome::of(r?.stats)));
    let (want, accepted) = dbg.judge(&report.baseline, candidates, outcomes.collect());
    let rows = |outcomes: &[CandidateOutcome]| -> Vec<(String, u32, bool, f64, bool)> {
        outcomes.iter().map(|o| (o.candidate.description.clone(), o.candidate.cost, o.effective, o.ks.d, o.accepted)).collect()
    };
    assert_eq!(rows(&report.outcomes), rows(&want), "{}", report.scenario);
    assert_eq!(report.accepted, accepted, "{}: the accepted order", report.scenario);
}

/// What `runs`' networks hold together: the switches any has a table on,
/// and per switch the distinct tables, entries in match order.
pub fn footprint(runs: impl IntoIterator<Item = Run>) -> TableFootprint {
    let mut distinct: Vec<(i64, Vec<FlowEntry>)> = Vec::new();
    for table in runs.into_iter().flat_map(|r| r.tables) {
        if !distinct.contains(&table) {
            distinct.push(table);
        }
    }
    let switches: BTreeSet<i64> = distinct.iter().map(|(sw, _)| *sw).collect();
    TableFootprint { switches: switches.len(), variants: distinct.len() }
}

/// The curated runs: Q1–Q5, Fig. 7, Q1's Trema and Pyretic ports, Q1
/// padded to 100 rules and Q1 on 10 130 switches.
pub fn curated() -> Vec<Scenario> {
    let q1 = Scenario::q1_copy_paste();
    let mut scenarios = Scenario::all();
    scenarios.extend([Scenario::fig7_harmful_entry(), q1.trema_variant()]);
    scenarios.extend(q1.pyretic_variant());
    scenarios.extend([Scenario::q1_padded(100), Scenario::q1_on_fabric(10_000)]);
    scenarios
}
