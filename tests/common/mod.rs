//! The benchmark's `packetin-stream` in small, shared by the budget tests
//! and the log golden: the Q1 controller, and a seeded campus trace as the
//! packet-ins it sees at each client's ingress switch; a scenario's
//! observation run as the debugger drives it; and the reference every
//! network-level differential is held to ([`reference`]).

// Each test binary compiles the whole module and uses a part of it: the
// items some binaries leave unused carry `allow(dead_code)`.
#[allow(dead_code)]
pub mod reference;

use sdn_meta_repair::backtest::replay::drive;
use sdn_meta_repair::core::debugger::Debugger;
use sdn_meta_repair::core::scenarios::{q1_hosts, Scenario};
use sdn_meta_repair::runtime::Options;
use sdn_meta_repair::sdn::controller::{NdlogController, PacketInMsg};
use sdn_meta_repair::sdn::topology::fig1_hosts::{DNS, H1, H2, INTERNET};
use sdn_meta_repair::sdn::Simulation;
use sdn_meta_repair::trace::Workload;
use std::sync::Arc;

/// The Q1 controller, seeded, on an engine built with `opts`.
#[allow(dead_code)]
pub fn q1_controller(opts: Options) -> NdlogController {
    let s = Scenario::q1_copy_paste();
    let mut ctrl = NdlogController::with_options(s.program.clone(), s.codec.clone(), opts)
        .expect("the Q1 program compiles");
    ctrl.seed(s.seeds.clone()).expect("the Q1 seeds insert");
    ctrl
}

/// `n` packet-ins of the Q1 stream.
#[allow(dead_code)]
pub fn q1_packet_ins(n: usize) -> Vec<PacketInMsg> {
    use q1_hosts::{C2, C31, C41, H30, H40};
    let s = Scenario::q1_copy_paste();
    let mut spec =
        Workload::trace_profile_a(vec![INTERNET, C2, C31, C41], vec![H1, H2, H30, H40], vec![DNS]);
    spec.packets = n;
    spec.generate()
        .into_iter()
        .map(|(client, packet)| {
            let (switch, in_port) = s.topology.host_attachment(client).expect("clients are attached");
            PacketInMsg { switch, in_port, packet }
        })
        .collect()
}

/// `s`'s observation run as the debugger drives it, recording: through the
/// simulator's workload loop, which answers repeats from its memo, on the
/// batch engine.
#[allow(dead_code)]
pub fn observation_run(s: &Scenario) -> Simulation<NdlogController> {
    drive(&Debugger::for_scenario(s).setup(), Arc::clone(&s.program), true, &[]).expect("the scenario runs")
}
