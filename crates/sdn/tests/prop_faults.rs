//! Fault-schedule determinism: the same `(SimConfig, FaultPlan, workload)`
//! triple must yield bit-identical [`SimStats`] and — when the controller
//! is the NDlog engine — a bit-identical [`mpr_runtime::ExecLog`], no
//! matter how often the run is repeated. This is the contract the chaos
//! harness and the pinned regression scenarios build on.

use mpr_sdn::controller::{NdlogController, TupleCodec};
use mpr_sdn::faults::{CtrlFaults, FaultPlan, LinkFault, SwitchCrash};
use mpr_sdn::topology::{fig1, fig1_hosts, NodeRef};
use mpr_sdn::{Packet, SimConfig, SimStats, Simulation};
use proptest::prelude::*;

/// The reactive fig1 controller program used across the repo's scenarios.
fn controller() -> NdlogController {
    let program = mpr_ndlog::parse_program(
        "prop-faults",
        r"
        materialize(PacketIn, event, 2, keys()).
        materialize(FlowTable, infinity, 2, keys(0)).
        r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.
        r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
        ",
    )
    .unwrap();
    NdlogController::new(program, TupleCodec::fig2()).unwrap()
}

fn plan(
    seed: u64,
    link_from: u64,
    link_len: u64,
    crash_at: u64,
    crash_len: u64,
    drop: f64,
    dup: f64,
    delay: f64,
    reorder: bool,
) -> FaultPlan {
    FaultPlan {
        seed,
        links: vec![LinkFault::flap(
            NodeRef::Switch(1),
            NodeRef::Switch(2),
            link_from,
            link_from + 4 * link_len,
            link_len.max(1),
        )],
        crashes: vec![SwitchCrash { switch: 2, at: crash_at, down_for: crash_len }],
        ctrl: CtrlFaults {
            drop_chance: drop,
            dup_chance: dup,
            delay_chance: delay,
            delay_min: 1,
            delay_max: 50,
            reorder,
        },
    }
}

/// One full run: inject a packet train toward H1, return the stats and
/// the controller engine's execution log.
fn run(cfg: &SimConfig, packets: u64) -> (SimStats, mpr_runtime::ExecLog) {
    let mut sim = Simulation::new(fig1(), controller(), cfg.clone());
    sim.install_proactive_routes();
    for i in 0..packets {
        sim.inject(fig1_hosts::INTERNET, Packet::http(i, fig1_hosts::INTERNET, fig1_hosts::H1));
        sim.run();
    }
    let stats = sim.stats.clone();
    let log = sim.controller().exec_log().clone();
    (stats, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same plan → bit-identical SimStats and ExecLog.
    #[test]
    fn fault_schedules_are_deterministic(
        plan_seed in 0u64..1000,
        timing in (0u64..300, 1u64..60, 0u64..300, 1u64..200),
        drop in any::<f64>().prop_map(|x| x * 0.6),
        dup in any::<f64>().prop_map(|x| x * 0.6),
        delay in any::<f64>().prop_map(|x| x * 0.6),
        reorder in any::<bool>(),
        packets in 1u64..12,
    ) {
        let (link_from, link_len, crash_at, crash_len) = timing;
        let cfg = SimConfig {
            faults: plan(plan_seed, link_from, link_len, crash_at, crash_len, drop, dup, delay, reorder),
            ..SimConfig::default()
        };
        let (s1, l1) = run(&cfg, packets);
        let (s2, l2) = run(&cfg, packets);
        prop_assert_eq!(&s1, &s2, "SimStats must be bit-identical across reruns");
        prop_assert_eq!(l1, l2, "controller ExecLog must be bit-identical across reruns");
    }

    /// A different plan seed is allowed to change outcomes, but never to
    /// crash the simulation or lose packet accounting.
    #[test]
    fn packets_are_always_accounted_for(
        plan_seed in 0u64..1000,
        drop in any::<f64>(),
        dup in any::<f64>().prop_map(|x| x * 0.5),
        delay in any::<f64>(),
    ) {
        let cfg = SimConfig {
            faults: plan(plan_seed, 0, 10, 50, 100, drop, dup, delay, true),
            ..SimConfig::default()
        };
        let (s, _) = run(&cfg, 8);
        prop_assert_eq!(s.injected, 8);
        let accounted = s.total_delivered()
            + s.misdelivered
            + s.dropped_policy
            + s.dropped_buffered
            + s.dropped_ttl
            + s.dropped_link_down
            + s.dropped_switch_down;
        // Duplicated PacketOuts can add deliveries beyond `injected`, but
        // nothing may simply vanish.
        prop_assert!(accounted >= s.injected, "accounted {} < injected {}", accounted, s.injected);
    }
}
