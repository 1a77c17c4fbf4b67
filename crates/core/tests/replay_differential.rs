//! Differential proof for the simulator hot path: runs whose flow tables
//! are forced through the exhaustive `lookup_reference` oracle, and runs
//! whose route cache starts cold, must be bit-identical — the ExecLog
//! (every packet-in the controller saw is a row of it) and the stats — to
//! the shipped indexed/cached paths, across every scenario and under fault
//! plans.

use mpr_core::scenarios::Scenario;
use mpr_runtime::{ExecLog, Options as EngineOptions};
use mpr_sdn::controller::NdlogController;
use mpr_sdn::faults::{CtrlFaults, FaultPlan, LinkFault, SwitchCrash};
use mpr_sdn::topology::{NodeRef, Topology};
use mpr_sdn::{SimStats, Simulation};
use std::sync::Arc;

struct RunOutput {
    stats: SimStats,
    log: ExecLog,
    /// Lookups the oracle answered: the proof the reference side ran on
    /// `lookup_reference`, and the indexed side did not.
    reference_lookups: u64,
}

/// Replay a scenario's workload. `reference_tables` forces every flow
/// table through the oracle lookup; `topology` lets the caller choose a
/// shared (possibly warmed) or fresh handle; `proactive` installs the
/// shortest-path core underneath the app.
fn run(s: &Scenario, topology: Arc<Topology>, reference_tables: bool, proactive: bool) -> RunOutput {
    let mut ctrl = NdlogController::with_options(
        s.program.clone(),
        s.codec.clone(),
        EngineOptions::default(),
    )
    .expect("scenario program compiles");
    ctrl.seed(s.seeds.clone()).expect("seeds");
    let mut sim = Simulation::new(topology, ctrl, s.sim.clone());
    // Set on the (still empty) set: every table materialised later — by
    // a FlowMod or a proactive route — inherits it.
    sim.tables.set_reference_mode(reference_tables);
    if proactive {
        sim.install_proactive_routes();
    }
    for (src, pkt) in s.workload.iter() {
        sim.inject(*src, pkt.clone());
        sim.run();
    }
    RunOutput {
        stats: sim.stats.clone(),
        log: sim.controller().exec_log().clone(),
        reference_lookups: sim.tables.reference_lookups(),
    }
}

fn assert_bit_identical(s: &Scenario, proactive: bool) {
    let indexed = run(s, s.topology.clone(), false, proactive);
    let reference = run(s, s.topology.clone(), true, proactive);
    assert_ran_on_the_oracle(s, &indexed, &reference);
    assert_eq!(
        indexed.stats, reference.stats,
        "{}: SimStats diverged between indexed and reference lookup",
        s.id
    );
    assert_eq!(
        indexed.log, reference.log,
        "{}: ExecLog diverged between indexed and reference lookup",
        s.id
    );
}

/// The comparison only means something when the two sides took different
/// lookup paths: any run that installed a flow entry and forwarded past it
/// must have consulted the oracle on the reference side, and never on the
/// indexed side.
fn assert_ran_on_the_oracle(s: &Scenario, indexed: &RunOutput, reference: &RunOutput) {
    assert_eq!(indexed.reference_lookups, 0, "{}: indexed run used the oracle", s.id);
    assert!(
        reference.reference_lookups > 0,
        "{}: reference run never reached lookup_reference ({} flow mods, {} hops)",
        s.id,
        reference.stats.flow_mods,
        reference.stats.hops
    );
}

#[test]
fn indexed_lookup_matches_reference_on_all_scenarios() {
    for s in Scenario::all() {
        assert_bit_identical(&s, false);
    }
    assert_bit_identical(&Scenario::fig7_harmful_entry(), false);
}

#[test]
fn indexed_lookup_matches_reference_with_proactive_routes() {
    // Proactive routes push every table past the index threshold, so this
    // exercises the hash index rather than the short linear scan.
    assert_bit_identical(&Scenario::q1_copy_paste(), true);
    assert_bit_identical(&Scenario::q1_on_campus(49), true);
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
/// warmed route cache and the reference lookup path must both reproduce
/// the shipped run bit for bit: faults perturb the simulator, never the
/// topology the cache memoizes.
#[test]
fn fault_plans_preserve_differential_equality() {
    let mut s = Scenario::q1_copy_paste();
    s.sim.faults = fault_plan();
    // Warm every host's route map on the shared topology first.
    for h in s.topology.hosts.iter().copied() {
        let _ = s.topology.routes_to(h);
    }
    let warmed = run(&s, s.topology.clone(), false, true);
    let cold = run(&s, Arc::new((*s.topology).clone()), false, true);
    let reference = run(&s, Arc::new((*s.topology).clone()), true, true);
    assert_eq!(warmed.stats, cold.stats, "warmed vs cold route cache diverged under faults");
    assert_eq!(warmed.log, cold.log);
    assert_ran_on_the_oracle(&s, &warmed, &reference);
    assert_eq!(warmed.stats, reference.stats, "indexed vs reference diverged under faults");
    assert_eq!(warmed.log, reference.log);
}
