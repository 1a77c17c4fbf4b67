//! Differential proof for the route cache: a run whose topology's route
//! cache starts cold must be bit-identical — the ExecLog (every packet-in
//! the controller saw is a row of it) and the stats — to one whose cache
//! was warmed first, under fault plans.

use mpr_core::scenarios::Scenario;
use mpr_runtime::{ExecLog, Options as EngineOptions};
use mpr_sdn::controller::NdlogController;
use mpr_sdn::faults::{CtrlFaults, FaultPlan, LinkFault, SwitchCrash};
use mpr_sdn::topology::{NodeRef, Topology};
use mpr_sdn::{SimStats, Simulation};
use std::sync::Arc;

/// Replay a scenario's workload over the proactive shortest-path core.
/// `topology` lets the caller choose a shared (possibly warmed) or fresh
/// handle.
fn run(s: &Scenario, topology: Arc<Topology>) -> (SimStats, ExecLog) {
    let mut ctrl = NdlogController::with_options(
        s.program.clone(),
        s.codec.clone(),
        EngineOptions::default(),
    )
    .expect("scenario program compiles");
    ctrl.seed(s.seeds.clone()).expect("seeds");
    let mut sim = Simulation::new(topology, ctrl, s.sim.clone());
    sim.install_proactive_routes();
    for (src, pkt) in s.workload.iter() {
        sim.inject(*src, pkt.clone());
        sim.run();
    }
    (sim.stats.clone(), sim.controller().exec_log().clone())
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
    let (warmed_stats, warmed_log) = run(&s, s.topology.clone());
    let (cold_stats, cold_log) = run(&s, Arc::new((*s.topology).clone()));
    assert!(warmed_stats.flow_mods > 0 && warmed_stats.hops > 0, "{warmed_stats:?}");
    assert_eq!(warmed_stats, cold_stats, "warmed vs cold route cache diverged under faults");
    assert_eq!(warmed_log, cold_log);
}
