//! Network state is proportional to what a run touches, by count: the
//! flow tables a simulation and a joint backtest materialise are bounded
//! by the switches FlowMods and manual entries name, not by the size of
//! the network — on the paper-scale fabric and on the 10 130-switch one.

use mpr_backtest::mqo::{mqo_replay_deltas, ExtraFlows, JointReplay};
use mpr_core::debugger::Debugger;
use mpr_core::scenarios::Scenario;
use mpr_ndlog::{Program, ProgramOutline};
use mpr_sdn::controller::{Controller, CtrlMsg, NdlogController, NullController, PacketInMsg};
use mpr_sdn::Simulation;
use std::collections::BTreeSet;

/// A controller that remembers which switches its FlowMods named.
struct Recording {
    inner: NdlogController,
    named: BTreeSet<i64>,
}

impl Controller for Recording {
    fn on_packet_in(&mut self, msg: &PacketInMsg, out: &mut Vec<CtrlMsg>) {
        self.inner.on_packet_in(msg, out);
        for m in out.iter() {
            if let CtrlMsg::FlowMod { switch, .. } = m {
                self.named.insert(*switch);
            }
        }
    }
}

/// Replay `s`'s workload under `program` with `extra` pre-installed;
/// returns the tables materialised and the switches anything named.
fn simulate(s: &Scenario, program: &Program, extra: &ExtraFlows) -> (usize, BTreeSet<i64>) {
    let mut inner = NdlogController::new(program.clone(), s.codec.clone()).unwrap();
    inner.seed(s.seeds.clone()).unwrap();
    let ctrl = Recording { inner, named: BTreeSet::new() };
    let mut sim = Simulation::new(s.topology.clone(), ctrl, s.sim.clone());
    for (sw, entry) in extra {
        sim.tables.install(*sw, entry.clone());
    }
    for (src, pkt) in &s.workload {
        sim.inject(*src, pkt.clone());
        sim.run();
    }
    let mut named = sim.controller().named.clone();
    named.extend(extra.iter().map(|(sw, _)| *sw));
    (sim.tables.materialised(), named)
}

/// Returns `(generated, trees)` of the repair whose candidates it replayed.
fn assert_state_follows_installs(s: &Scenario) -> (usize, u64) {
    let switches = s.topology.switches.len();
    let (materialised, named) = simulate(s, &s.program, &Vec::new());
    assert!(materialised <= named.len(), "{}: {materialised} tables, FlowMods named {named:?}", s.id);
    assert!(named.len() < 10 && named.len() < switches, "{}: {named:?}", s.id);

    let dbg = Debugger::for_scenario(s);
    let report = dbg.diagnose_and_repair().expect("the scenario runs");
    let outline = ProgramOutline::new(&s.program).expect("the scenario's program is valid");
    let setup = dbg.setup();
    let mut programs = Vec::new();
    let mut deltas = Vec::new();
    let mut extra: Vec<ExtraFlows> = Vec::new();
    for o in &report.outcomes {
        programs.push(o.candidate.repair.apply(&s.program).expect("candidate compiles"));
        let input = o.candidate.repair.replay_input(&s.program, &outline, &setup);
        deltas.push(input.delta.expect("candidate applies"));
        extra.push(input.extra_flows);
    }
    assert!(extra.iter().any(|e| !e.is_empty()), "{}: no manual-entry candidate", s.id);
    let JointReplay { outcomes, diverged, footprint, .. } =
        mqo_replay_deltas(&setup, &s.program, &deltas, &extra, &[]);
    assert_eq!(outcomes.len(), programs.len());
    assert_eq!(diverged, 0, "{}: every candidate is answered by the joint replay", s.id);

    // What each candidate's own network materialises bounds the joint one:
    // a switch has a variant only if some candidate installed there, and
    // at most one variant per candidate that did.
    let mut anywhere: BTreeSet<i64> = BTreeSet::new();
    let mut per_candidate = 0;
    for (program, extra) in programs.iter().zip(&extra) {
        let (materialised, named) = simulate(s, program, extra);
        assert!(materialised <= named.len());
        per_candidate += named.len();
        anywhere.extend(named);
    }
    assert!(footprint.switches <= anywhere.len(), "{}: {footprint:?} vs {anywhere:?}", s.id);
    assert!(footprint.variants <= per_candidate, "{}: {footprint:?} vs {per_candidate}", s.id);
    assert!(anywhere.len() < 10, "{}: candidates install on {anywhere:?}", s.id);
    (report.generated(), report.trees)
}

#[test]
fn flow_table_state_is_bounded_by_installs_on_the_paper_scale_fabric() {
    assert_state_follows_installs(&Scenario::q1_on_fabric(169));
}

#[test]
fn flow_table_state_is_bounded_by_installs_on_ten_thousand_switches() {
    let s = Scenario::q1_on_fabric(10_000);
    assert_eq!(s.topology.switches.len(), 10_130);
    // The benchmark's `fabric-10k` counts, which a cheaper network state
    // must not move: candidates, explorer trees, simulator events.
    assert_eq!(assert_state_follows_installs(&s), (14, 8));
    let mut sim = Simulation::new(s.topology.clone(), NullController, s.sim.clone());
    let mut events = 0;
    for (src, pkt) in &s.workload {
        sim.inject(*src, pkt.clone());
        events += sim.run();
    }
    assert_eq!(events, 2_960);
    assert_eq!(sim.tables.materialised(), 0);
}
