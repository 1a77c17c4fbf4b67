//! The simulator's injection memo against `reference::inject_and_run`:
//! [`Simulation::run_workload`] answers a repeated injection that sent no
//! packet-in and moved no install without forwarding it, and must leave
//! exactly what one `inject` + `run` per packet leaves — the whole
//! [`SimStats`], the clock, the packet-ins the controller saw, in order,
//! and the flow tables.
//!
//! Entries match on fields no codec reads (MACs, protocol, source port)
//! and rewrite them, flood, drop and punt; a scripted controller installs
//! one of them at every packet-in, so the tables move between repeats; and
//! the workload is run in two parts with an entry installed by hand in
//! between. The packets are three templates, each packet a third of the
//! time with one field or the source host moved to another value, so they
//! repeat and differ in one field at a time.

mod common;

use common::reference::inject_and_run;
use proptest::prelude::*;
use sdn_meta_repair::sdn::controller::{Controller, CtrlMsg, PacketInMsg};
use sdn_meta_repair::sdn::flowtable::{Action, FlowEntry, Match};
use sdn_meta_repair::sdn::packet::{Field, Packet, Proto};
use sdn_meta_repair::sdn::topology::{fig1, fig1_hosts};
use sdn_meta_repair::sdn::{SimConfig, SimStats, Simulation};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRunner;

/// Answers its `k`-th packet-in with its `k`-th reply, round robin: an
/// entry installed at the punting switch, and perhaps a `PacketOut` — back
/// to the controller too, which punts again one hop on.
struct Script {
    replies: Vec<(FlowEntry, Option<Action>)>,
    k: usize,
    seen: Vec<PacketInMsg>,
}

impl Controller for Script {
    fn on_packet_in(&mut self, msg: &PacketInMsg, out: &mut Vec<CtrlMsg>) {
        self.seen.push(msg.clone());
        let Some((entry, action)) = self.replies.get(self.k % self.replies.len().max(1)) else {
            return;
        };
        self.k += 1;
        out.push(CtrlMsg::FlowMod { switch: msg.switch, entry: entry.clone() });
        if let Some(action) = action {
            out.push(CtrlMsg::PacketOut { switch: msg.switch, packet: msg.packet.clone(), action: *action });
        }
    }
}

/// Fields an entry matches on or rewrites: the MACs, the protocol and the
/// source port no codec reads, and the destination the hosts count by.
const FIELDS: [Field; 6] = [Field::SrcMac, Field::DstMac, Field::Proto, Field::SrcPort, Field::DstIp, Field::DstPort];

/// A field's value: one of two (three for `DstIp`: two hosts and an
/// address no host has).
fn value(f: Field, v: usize) -> i64 {
    match f {
        Field::Proto => [Proto::Tcp, Proto::Udp][v % 2].code(),
        Field::DstIp => [fig1_hosts::H1, fig1_hosts::H2, 999][v % 3],
        Field::DstPort => [80, 53][v % 2],
        Field::SrcPort => [7, 8][v % 2],
        _ => (v % 2) as i64 + 1,
    }
}

/// Entry `i` of a pool drawn by index: priority, up to two constrained
/// fields and an ingress port, and an action list — an output, a rewrite
/// then an output, a flood, a punt, a drop, or a rewrite alone.
fn entry(i: &[usize; 7]) -> FlowEntry {
    let mut m = Match::any();
    for k in 0..i[1] % 3 {
        let f = FIELDS[(i[2] + 2 * k) % FIELDS.len()];
        m = m.with(f, value(f, i[3] >> k));
    }
    if i[4] % 4 == 0 {
        m = m.on_port(i[4] as i64 % 3);
    }
    let (f, out) = (FIELDS[i[5] % FIELDS.len()], Action::Output(i[6] as i64 % 4));
    let actions = match i[6] % 6 {
        0 => vec![out],
        1 => vec![Action::Modify(f, value(f, i[5])), out],
        2 => vec![Action::Flood],
        3 => vec![Action::Controller],
        4 => vec![Action::Drop],
        _ => vec![Action::Modify(f, value(f, i[5]))],
    };
    FlowEntry::new([5, 20, 50][i[0] % 3], m, actions)
}

/// Packet `seq` of template `d`; a `tweak` below 7 moves one of the
/// template's fields to its other value.
fn packet(seq: u64, d: &[usize; 7], tweak: usize) -> (i64, Packet) {
    let mut d = *d;
    if let Some(v) = d.get_mut(tweak) {
        *v += 1;
    }
    let src = [fig1_hosts::INTERNET, fig1_hosts::DNS, 555][d[0] % 3];
    let mut p = Packet::http(seq, src, value(Field::DstIp, d[1]));
    for (f, v) in [Field::DstPort, Field::SrcPort, Field::Proto, Field::SrcMac, Field::DstMac].into_iter().zip(&d[2..]) {
        p.set_field(f, value(f, *v));
    }
    (src, p)
}

type Draw = [usize; 7];

/// What a run leaves: counters, clock, the packet-ins seen, the tables,
/// and what the memo answered.
struct Run {
    stats: SimStats,
    now: u64,
    seen: Vec<PacketInMsg>,
    tables: Vec<Vec<FlowEntry>>,
    answered: u64,
}

struct Case {
    routes: bool,
    manual: Vec<(i64, FlowEntry)>,
    replies: Vec<(FlowEntry, Option<Action>)>,
    workload: Vec<(i64, Packet)>,
    cut: usize,
    between: (i64, FlowEntry),
}

/// Run `case` through `run_workload`, or one `inject` + `run` per packet.
fn run(case: &Case, memo: bool) -> Run {
    let script = Script { replies: case.replies.clone(), k: 0, seen: Vec::new() };
    let mut sim = Simulation::new(fig1(), script, SimConfig { max_hops: 12, ..SimConfig::default() });
    if case.routes {
        sim.install_proactive_routes();
    }
    for (sw, e) in &case.manual {
        sim.tables.install(*sw, e.clone());
    }
    let (first, second) = case.workload.split_at(case.cut.min(case.workload.len()));
    for (k, part) in [first, second].into_iter().enumerate() {
        if k == 1 {
            sim.tables.install(case.between.0, case.between.1.clone());
        }
        if memo {
            sim.run_workload(part);
        } else {
            inject_and_run(&mut sim, part);
        }
    }
    assert_eq!(sim.forwarded() + sim.answered(), sim.stats.injected, "forwarded + answered = injected");
    let tables = [1, 2, 3].iter().map(|sw| sim.tables.get(sw).map(|t| t.iter().cloned().collect()).unwrap_or_default()).collect();
    Run { stats: sim.stats.clone(), now: sim.now(), seen: sim.controller().seen.clone(), tables, answered: sim.answered() }
}

fn draw() -> impl Strategy<Value = Draw> {
    (0usize..6, 0usize..6, 0usize..6, 0usize..6, 0usize..6, 0usize..6, 0usize..6)
        .prop_map(|(a, b, c, d, e, f, g)| [a, b, c, d, e, f, g])
}

/// The memo's run equals `inject` + `run` per packet on everything it
/// leaves — and, over the cases, it answers a share of the injections, or
/// the comparison would hold of a loop that never files one.
#[test]
fn the_workload_loop_equals_inject_and_run() {
    let case = (
        0u8..2,
        prop::collection::vec((1i64..4, draw()), 0..4),
        prop::collection::vec((draw(), 0usize..5), 0..4),
        prop::collection::vec(draw(), 3),
        prop::collection::vec((0usize..3, 0usize..21), 1..64),
        0usize..64,
        (1i64..4, draw()),
    );
    let punt_outs = [None, Some(Action::Output(1)), Some(Action::Flood), Some(Action::Drop), Some(Action::Controller)];
    let (mut answered, mut injected) = (0, 0);
    let mut runner = TestRunner::new(ProptestConfig::with_cases(256), "the_workload_loop_equals_inject_and_run");
    runner.run(|rng| {
        let (routes, manual, replies, templates, workload, cut, between) = case.generate(rng);
        let case = Case {
            routes: routes == 1,
            manual: manual.iter().map(|(sw, d)| (*sw, entry(d))).collect(),
            replies: replies.iter().map(|(d, a)| (entry(d), punt_outs[*a])).collect(),
            workload: workload.iter().enumerate().map(|(i, (t, tweak))| packet(i as u64, &templates[*t], *tweak)).collect(),
            cut,
            between: (between.0, entry(&between.1)),
        };
        let (reference, memo) = (run(&case, false), run(&case, true));
        prop_assert_eq!(reference.answered, 0);
        prop_assert_eq!(&memo.stats, &reference.stats);
        prop_assert_eq!(memo.now, reference.now);
        prop_assert_eq!(&memo.seen, &reference.seen);
        prop_assert_eq!(&memo.tables, &reference.tables);
        (answered, injected) = (answered + memo.answered, injected + memo.stats.injected);
        Ok(())
    });
    println!("{answered} of {injected} injections answered from the memo");
    assert!(answered * 5 >= injected, "{answered} of {injected} answered");
}
