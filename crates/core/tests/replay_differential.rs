//! Differential proof for the route cache: a run whose topology's route
//! cache starts cold must be bit-identical — the ExecLog (every packet-in
//! the controller saw is a row of it), the stats, the clock and the flow
//! tables — to one whose cache was warmed first, under fault plans.

use mpr_core::scenarios::Scenario;
use mpr_runtime::{ExecLog, Options as EngineOptions};
use mpr_sdn::controller::NdlogController;
use mpr_sdn::flowtable::FlowEntry;
use mpr_sdn::faults::{CtrlFaults, FaultPlan, LinkFault, SwitchCrash};
use mpr_sdn::topology::{NodeRef, Topology};
use mpr_sdn::{SimStats, Simulation};
use std::sync::Arc;

/// Replay a scenario's workload over the proactive shortest-path core:
/// its counters, its clock, the controller's log and, per switch with a
/// table, its entries in match order. `topology` lets the caller choose a
/// shared (possibly warmed) or fresh handle.
fn run(s: &Scenario, topology: Arc<Topology>) -> (SimStats, u64, ExecLog, Vec<(i64, Vec<FlowEntry>)>) {
    let mut ctrl = NdlogController::with_options(s.program.clone(), s.codec.clone(), EngineOptions::default())
        .expect("scenario program compiles");
    ctrl.seed(s.seeds.clone()).expect("seeds");
    let mut sim = Simulation::new(topology, ctrl, s.sim.clone());
    sim.install_proactive_routes();
    for (src, pkt) in s.workload.iter() {
        sim.inject(*src, pkt.clone());
        sim.run();
    }
    let table = |sw: &i64| Some((*sw, sim.tables.get(sw)?.iter().cloned().collect()));
    let tables = s.topology.switches.iter().filter_map(table).collect();
    (sim.stats.clone(), sim.now(), sim.controller().exec_log().clone(), tables)
}

fn fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 23,
        links: vec![LinkFault::flap(NodeRef::Switch(1), NodeRef::Switch(2), 20, 600, 40)],
        crashes: vec![SwitchCrash { switch: 2, at: 150, down_for: 80 }],
        ctrl: CtrlFaults {
            drop_chance: 0.15,
            dup_chance: 0.15,
            delay_chance: 0.25,
            delay_min: 1,
            delay_max: 30,
            reorder: true,
        },
    }
}

/// Under LinkDown/LinkFlap/SwitchCrash/control-channel fault plans, a
/// warmed route cache must reproduce a cold one bit for bit: faults
/// perturb the simulator, never the topology the cache memoizes.
#[test]
fn fault_plans_preserve_differential_equality() {
    let mut s = Scenario::q1_copy_paste();
    s.sim.faults = fault_plan();
    // Warm every host's route map on the shared topology first.
    for h in s.topology.hosts.iter().copied() {
        let _ = s.topology.routes_to(h);
    }
    let warmed = run(&s, s.topology.clone());
    let cold = run(&s, Arc::new((*s.topology).clone()));
    assert!(warmed.0.flow_mods > 0 && warmed.0.hops > 0, "{:?}", warmed.0);
    assert_eq!(warmed.0, cold.0, "warmed vs cold route cache diverged under faults");
    assert_eq!(warmed, cold, "the clock, the log or the tables diverged");
}
