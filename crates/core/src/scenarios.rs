//! The five diagnostic scenarios of §5.3, recreated as in the paper "based
//! on their published description":
//!
//! - **Q1** copy-and-paste error (CP-Miner class, Fig. 1/Fig. 2);
//! - **Q2** forwarding error (ATPG class);
//! - **Q3** uncoordinated policy update (OFf class);
//! - **Q4** forgotten packets (NICE class);
//! - **Q5** incorrect MAC learning (the HotSDN assertion-language class).
//!
//! Each scenario bundles the buggy program, the network, the seeded
//! controller state, a deterministic workload, the operator's symptom
//! query, and the effectiveness criterion used by backtesting.

use crate::cost::SearchBudget;
use mpr_ndlog::{parse_program, Program, Tuple, Value};
use mpr_provenance::Pattern;
use mpr_sdn::controller::TupleCodec;
use mpr_sdn::packet::Packet;
use mpr_sdn::sim::SimConfig;
use mpr_sdn::topology::{fig1_hosts, NodeRef, Topology};
use mpr_trace::workload::Injection;
use std::sync::Arc;

/// What the operator observed.
#[derive(Debug, Clone)]
pub enum Symptom {
    /// A tuple that should exist does not (negative, the common case).
    Missing(Pattern),
    /// A tuple exists that should not (positive, Fig. 7).
    Existing(Tuple),
}

/// The effectiveness criterion: did the repair fix the problem at hand?
/// ("the repair caused the server to receive at least a few packets",
/// §5.3.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// `delivered_on(host, port) > 0`.
    DeliversOn {
        /// Destination host.
        host: i64,
        /// Destination port.
        port: i64,
    },
    /// `delivered_to(host) >= min` (Q4's first-packet criterion).
    DeliversAtLeast {
        /// Destination host.
        host: i64,
        /// Minimum delivered count.
        min: u64,
    },
}

impl Effect {
    /// Evaluate against a replay outcome.
    pub fn holds(&self, stats: &mpr_sdn::sim::SimStats) -> bool {
        match self {
            Effect::DeliversOn { host, port } => stats.delivered_on(*host, *port) > 0,
            Effect::DeliversAtLeast { host, min } => stats.delivered_to(*host) >= *min,
        }
    }
}

/// A full diagnostic scenario.
#[derive(Clone)]
pub struct Scenario {
    /// Short id ("Q1").
    pub id: String,
    /// The paper's query text.
    pub query: String,
    /// The buggy controller program (shared: the debugger, its controller
    /// and the explorer's world all read this one copy).
    pub program: Arc<Program>,
    /// The network (shared: backtests hand it to many replays unchanged).
    pub topology: Arc<Topology>,
    /// Packet ↔ tuple mapping.
    pub codec: TupleCodec,
    /// Configuration tuples seeded into the controller.
    pub seeds: Vec<Tuple>,
    /// The deterministic workload.
    pub workload: Vec<Injection>,
    /// The observed symptom.
    pub symptom: Symptom,
    /// Effectiveness criterion for backtesting.
    pub effect: Effect,
    /// A substring identifying the repair a human would pick (used by the
    /// integration tests: the intuitive fix must be generated).
    pub reference_fix: String,
    /// Search bounds for this scenario.
    pub budget: SearchBudget,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Does the language's syntax admit operator repairs? Pyretic's
    /// `match` is equality-only (§5.8), so operator mutations are not
    /// legal Pyretic repairs.
    pub op_repairs: bool,
}

fn v(i: i64) -> Value {
    Value::Int(i)
}

const C: &str = "C";

/// Hosts specific to the Q1 extended topology.
pub mod q1_hosts {
    /// Client behind S2 (its HTTP rides r5's entry).
    pub const C2: i64 = 25;
    /// Edge web server behind S4.
    pub const H30: i64 = 30;
    /// Edge client behind S4.
    pub const C31: i64 = 31;
    /// Edge web server behind S5.
    pub const H40: i64 = 40;
    /// Edge client behind S5.
    pub const C41: i64 = 41;
}

/// Fig. 1 topology extended with two edge networks (S4, S5) so that
/// over-general repairs have observable side effects (the campus flavor of
/// §5.2 at fixture scale).
pub fn q1_topology() -> Topology {
    let mut t = mpr_sdn::topology::fig1();
    t.add_switch(4);
    t.add_switch(5);
    for h in [q1_hosts::C2, q1_hosts::H30, q1_hosts::C31, q1_hosts::H40, q1_hosts::C41] {
        t.add_host(h);
    }
    t.connect_ports(NodeRef::Switch(2), 3, NodeRef::Host(q1_hosts::C2), 0);
    t.connect_ports(NodeRef::Switch(4), 0, NodeRef::Switch(1), 3);
    t.connect_ports(NodeRef::Switch(4), 1, NodeRef::Host(q1_hosts::H30), 0);
    t.connect_ports(NodeRef::Switch(4), 2, NodeRef::Host(q1_hosts::C31), 0);
    t.connect_ports(NodeRef::Switch(5), 0, NodeRef::Switch(1), 4);
    t.connect_ports(NodeRef::Switch(5), 1, NodeRef::Host(q1_hosts::H40), 0);
    t.connect_ports(NodeRef::Switch(5), 2, NodeRef::Host(q1_hosts::C41), 0);
    t
}

/// The Q1 (buggy) controller program — Fig. 2 extended with the edge-switch
/// policies. The copy-and-paste bug is in `r7`: `Swi == 2` should be
/// `Swi == 3`.
pub fn q1_program() -> Program {
    parse_program(
        "q1-loadbalancer",
        r"
        materialize(PacketIn, event, 2, keys()).
        materialize(FlowTable, infinity, 2, keys(0,1)).
        materialize(WebLoadBalancer, infinity, 2, keys(0)).
        r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
        r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
        r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
        r6 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 53, Prt := 2.
        r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
        p1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 4, Hdr == 80, Prt := 1.
        p2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 5, Hdr == 80, Prt := 1.
        p3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr == 53, Prt := 1.
        ",
    )
    .expect("q1 program parses")
}

/// Q1 workload: edge-local web traffic dominates; a small stream of
/// offloaded Internet HTTP plus Internet DNS exercises the buggy path.
fn q1_workload(packets_per_flow: u64) -> Vec<Injection> {
    let mut w = Vec::new();
    let n = packets_per_flow;
    let mut seq = 0u64;
    for i in 0..n {
        // Background: clients hammer their local web servers (dominant).
        for _ in 0..6 {
            w.push((q1_hosts::C31, Packet::http(seq, q1_hosts::C31, q1_hosts::H30)));
            seq += 1;
            w.push((q1_hosts::C41, Packet::http(seq + 1000_000, q1_hosts::C41, q1_hosts::H40)));
            seq += 1;
        }
        // A client behind S2 rides r5's entry to the primary server H1 —
        // repairs that re-target r5 (Table 2 candidate I) hurt this flow.
        for _ in 0..2 {
            w.push((q1_hosts::C2, Packet::http(seq, q1_hosts::C2, fig1_hosts::H1)));
            seq += 1;
        }
        // Internet DNS (delivered in the buggy network).
        w.push((fig1_hosts::INTERNET, Packet::dns(seq, 100, fig1_hosts::DNS)));
        seq += 1;
        // Offloaded Internet HTTP — the symptom flow (small share).
        if i % 8 == 0 {
            w.push((fig1_hosts::INTERNET, Packet::http(seq, 100, fig1_hosts::H2)));
            seq += 1;
        }
    }
    w
}

impl Scenario {
    /// **Q1 — copy-and-paste error** (Fig. 1/Fig. 2; CP-Miner class).
    /// "H2 is not receiving HTTP requests": the operator copied `r5` into
    /// `r7` for the new backup server but forgot to change `Swi == 2`.
    pub fn q1_copy_paste() -> Scenario {
        Scenario {
            id: "Q1".into(),
            query: "H2 is not receiving HTTP requests from the Internet".into(),
            program: q1_program().into(),
            topology: Arc::new(q1_topology()),
            codec: TupleCodec::fig2(),
            seeds: vec![Tuple::new("WebLoadBalancer", Value::str(C), vec![v(80), v(2)])],
            workload: q1_workload(128),
            symptom: Symptom::Missing(Pattern {
                table: "FlowTable".into(),
                loc: Some(v(3)),
                args: vec![Some(v(80)), Some(v(2))],
            }),
            effect: Effect::DeliversOn { host: fig1_hosts::H2, port: 80 },
            reference_fix: "Changing Swi == 2 in r7 to Swi == 3".into(),
            budget: SearchBudget::default(),
            sim: SimConfig::default(),
            op_repairs: true,
        }
    }

    /// **Q2 — forwarding error** (ATPG class). "H17 is not receiving DNS
    /// queries from client 6": the allow predicate `Sip < 6` excludes the
    /// newest permitted client; `Sip < 7` (or `<= 6`) is the fix.
    pub fn q2_forwarding_error() -> Scenario {
        let program = parse_program(
            "q2-forwarding",
            r"
            materialize(PacketIn, event, 6, keys()).
            materialize(FlowTable, infinity, 5, keys(0,1,2,3)).
            r1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 3, Dpt == 53, Sip < 6, Prt := 1.
            r2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 1, Dpt == 53, Ipt < 16, Prt := 2.
            r3 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 1, Dpt == 80, Sip < 99, Prt := 1.
            r5 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 2, Dpt == 80, Sip < 2009, Prt := 1.
            ",
        )
        .expect("q2 program parses");
        // Clients 1..=12 send DNS; policy intent: clients 1..=6 allowed.
        // Client 6 is wrongly blocked (the symptom); 7..=12 stay blocked.
        let mut workload = Vec::new();
        let mut seq = 0u64;
        for round in 0..40 {
            for c in 1..=12i64 {
                workload.push((fig1_hosts::INTERNET, {
                    let mut p = Packet::dns(seq, c, fig1_hosts::DNS);
                    p.src_mac = c;
                    p.src_port = 1000 + c; // one flow per client
                    p
                }));
                seq += 1;
            }
            // Background HTTP keeps the overall distribution broad.
            for c in 1..=4i64 {
                let _ = round;
                let mut p = Packet::http(seq, c, fig1_hosts::H1);
                p.src_port = 2000 + c; // one flow per client
                workload.push((fig1_hosts::INTERNET, p));
                seq += 1;
            }
        }
        Scenario {
            id: "Q2".into(),
            query: "The DNS server is not receiving queries from client 6".into(),
            program: program.into(),
            topology: Arc::new(mpr_sdn::topology::fig1()),
            codec: TupleCodec::five_tuple(),
            seeds: vec![],
            workload,
            symptom: Symptom::Missing(Pattern {
                table: "FlowTable".into(),
                loc: Some(v(3)),
                args: vec![Some(v(6)), Some(v(fig1_hosts::DNS)), None, Some(v(53)), Some(v(1))],
            }),
            effect: Effect::DeliversOn { host: fig1_hosts::DNS, port: 53 },
            reference_fix: "Changing Sip < 6 in r1 to Sip < 7".into(),
            budget: SearchBudget { max_candidates: 12, ..SearchBudget::default() },
            sim: SimConfig::default(),
            op_repairs: true,
        }
    }

    /// **Q3 — uncoordinated policy update** (OFf class). The load balancer
    /// started offloading clients 1 and 3 through S3, but the stale
    /// firewall whitelist `Sip > 3` blocks client 3 (client 1 is blocked
    /// *by policy* and must stay blocked — `Sip > 0` overshoots).
    pub fn q3_policy_update() -> Scenario {
        let program = parse_program(
            "q3-firewall",
            r"
            materialize(PacketIn, event, 6, keys()).
            materialize(FlowTable, infinity, 5, keys(0,1,2,3)).
            lb1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 1, Dpt == 80, Sip > 4, Prt := 1.
            lb2 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 1, Dpt == 80, Sip < 5, Prt := 2.
            w1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 2, Dpt == 80, Sip > 0, Prt := 1.
            f1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 3, Dpt == 80, Sip > 3, Prt := 2.
            ",
        )
        .expect("q3 program parses");
        // Clients 5..=9 take the primary path (S1→S2→H1). Clients 1 and 3
        // are offloaded via S3 toward the backup H2; the firewall must pass
        // 3 (whitelisted) and keep dropping 1.
        let mut workload = Vec::new();
        let mut seq = 0u64;
        for round in 0..100u64 {
            for c in 5..=9i64 {
                let mut p = Packet::http(seq, c, fig1_hosts::H1);
                p.src_port = 2000 + c; // one flow per client
                workload.push((fig1_hosts::INTERNET, p));
                seq += 1;
            }
            // The offloaded flow (blocked by the bug) — a small share, so
            // admitting it passes the KS filter.
            if round % 4 == 0 {
                let mut p3 = Packet::http(seq, 3, fig1_hosts::H2);
                p3.src_port = 2003;
                workload.push((fig1_hosts::INTERNET, p3));
            }
            seq += 1;
            // Client 1: also offloaded, but *intentionally* blocked — a
            // larger share, so over-permissive repairs fail the filter.
            if round % 2 == 0 {
                let mut p1 = Packet::http(seq, 1, fig1_hosts::H2);
                p1.src_port = 2001;
                workload.push((fig1_hosts::INTERNET, p1));
            }
            seq += 1;
        }
        Scenario {
            id: "Q3".into(),
            query: "H2 is not receiving the offloaded HTTP requests".into(),
            program: program.into(),
            topology: Arc::new(mpr_sdn::topology::fig1()),
            codec: TupleCodec::five_tuple(),
            seeds: vec![],
            workload,
            symptom: Symptom::Missing(Pattern {
                table: "FlowTable".into(),
                loc: Some(v(3)),
                args: vec![Some(v(3)), Some(v(fig1_hosts::H2)), Some(v(2003)), Some(v(80)), Some(v(2))],
            }),
            effect: Effect::DeliversOn { host: fig1_hosts::H2, port: 80 },
            reference_fix: "Changing Sip > 3 in f1 to Sip > 2".into(),
            budget: SearchBudget { max_candidates: 12, ..SearchBudget::default() },
            sim: SimConfig::default(),
            op_repairs: true,
        }
    }

    /// **Q4 — forgotten packets** (NICE class). The app installs flow
    /// entries correctly but only sends `PacketOut` for S1 — S2's first
    /// packet of every flow is buffered and lost.
    pub fn q4_forgotten_packets() -> Scenario {
        let program = parse_program(
            "q4-forgotten",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0,1)).
            materialize(PacketOut, event, 2, keys()).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            e2 PacketOut(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.
            ",
        )
        .expect("q4 program parses");
        let mut codec = TupleCodec::fig2();
        codec.packet_out_table = Some("PacketOut".into());
        // One flow of N packets: the buggy program delivers N−1 (the first
        // dies buffered at S2).
        let n = 40u64;
        let workload: Vec<Injection> = (0..n)
            .map(|i| (fig1_hosts::INTERNET, Packet::http(i, 100, fig1_hosts::H1)))
            .collect();
        Scenario {
            id: "Q4".into(),
            query: "The first HTTP packet of each flow is not received".into(),
            program: program.into(),
            topology: Arc::new(mpr_sdn::topology::fig1()),
            codec,
            seeds: vec![],
            workload,
            symptom: Symptom::Missing(Pattern {
                table: "PacketOut".into(),
                loc: Some(v(2)),
                args: vec![Some(v(80)), None],
            }),
            effect: Effect::DeliversAtLeast { host: fig1_hosts::H1, min: 40 },
            reference_fix: "Copying r5 and replacing head with PacketOut".into(),
            budget: SearchBudget { max_cost: 7, max_candidates: 13, consts_per_site: 3 },
            sim: SimConfig::default(),
            op_repairs: true,
        }
    }

    /// **Q5 — incorrect MAC learning** (HotSDN assertion class). The
    /// learning rule records a wildcard (0) instead of the packet's source
    /// address, so no host is ever learned and no forwarding entry matches.
    pub fn q5_mac_learning() -> Scenario {
        let program = parse_program(
            "q5-maclearning",
            r"
            materialize(PacketIn, event, 6, keys()).
            materialize(FlowTable, infinity, 5, keys(0,1,2,3)).
            materialize(Learned, infinity, 3, keys(0,1)).
            f0 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 1, Dpt == 53, Prt := 2.
            f1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Swi == 3, Dpt == 53, Prt := 1.
            f2 Learned(@C,Swi,Lip,Lpt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Lip := 0, Lpt := Ipt.
            f3 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Learned(@C,Swi,Dip,Prt).
            ",
        )
        .expect("q5 program parses");
        // Hosts behind S2: H1 (port 1) and the client C30 (port 3 — added
        // below). Pings go back and forth; with learning broken nothing is
        // ever delivered.
        let mut topo = mpr_sdn::topology::fig1();
        topo.add_host(30);
        topo.connect_ports(NodeRef::Switch(2), 3, NodeRef::Host(30), 0);
        let mut workload = Vec::new();
        let mut seq = 0u64;
        for round in 0..40u64 {
            // Background DNS rides the static rules f0/f1 regardless of
            // the learning bug, so the baseline distribution is non-empty
            // and dominates (repairing the small learned flows then passes
            // the KS filter, like the paper's accepted candidates A/G/I).
            for k in 0..12u64 {
                let mut d = Packet::dns(seq, 100, fig1_hosts::DNS);
                d.src_port = 5000 + k as i64;
                workload.push((fig1_hosts::INTERNET, d));
                seq += 1;
            }
            // C30 → H1 then H1 → C30 (so both get learned when fixed).
            if round % 4 == 0 {
                let mut a = Packet::http(seq, 30, fig1_hosts::H1);
                a.src_port = 4000;
                workload.push((30, a));
                seq += 1;
                let mut b = Packet::http(seq, fig1_hosts::H1, 30);
                b.src_port = 4001;
                workload.push((fig1_hosts::H1, b));
                seq += 1;
            }
        }
        Scenario {
            id: "Q5".into(),
            query: "H1's address is never learned by the controller".into(),
            program: program.into(),
            topology: Arc::new(topo),
            codec: TupleCodec::five_tuple(),
            seeds: vec![],
            workload,
            symptom: Symptom::Missing(Pattern {
                table: "Learned".into(),
                loc: Some(Value::str(C)),
                args: vec![Some(v(2)), Some(v(fig1_hosts::H1)), None],
            }),
            effect: Effect::DeliversOn { host: fig1_hosts::H1, port: 80 },
            reference_fix: "Changing Lip := 0 in f2 to Lip := Sip".into(),
            budget: SearchBudget { max_cost: 7, max_candidates: 9, consts_per_site: 2 },
            sim: SimConfig::default(),
            op_repairs: true,
        }
    }

    /// **Fig. 7 — a harmful flow entry** (positive symptom). The operator
    /// misconfigured the load balancer: HTTP is being offloaded to the
    /// backup even though the primary has capacity. The offending
    /// `FlowTable(@1,80,2)` entry *exists*; repairs must make it disappear
    /// (§4.2): delete/change the `WebLoadBalancer` base tuple, or change a
    /// literal of the deriving rule so this binding no longer fires.
    pub fn fig7_harmful_entry() -> Scenario {
        let program = parse_program(
            "fig7-harmful",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0,1)).
            materialize(WebLoadBalancer, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
            r0 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr == 80, Prt := 2.
            d1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
            d3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr == 53, Prt := 1.
            ",
        )
        .expect("fig7 program parses");
        // DNS background dominates; the hijacked HTTP flow is a small
        // share, so restoring it passes the KS filter.
        let mut workload: Vec<Injection> = Vec::new();
        for i in 0..60u64 {
            for _ in 0..4 {
                workload.push((fig1_hosts::INTERNET, Packet::dns(i * 10, 100, fig1_hosts::DNS)));
            }
            if i % 8 == 0 {
                workload
                    .push((fig1_hosts::INTERNET, Packet::http(i, 100, fig1_hosts::H1)));
            }
        }
        Scenario {
            id: "Fig7".into(),
            query: "HTTP is misrouted to the backup server (harmful flow entry exists)".into(),
            program: program.into(),
            topology: Arc::new(mpr_sdn::topology::fig1()),
            codec: TupleCodec::fig2(),
            seeds: vec![Tuple::new("WebLoadBalancer", Value::str(C), vec![v(80), v(2)])],
            workload,
            symptom: Symptom::Existing(Tuple::new("FlowTable", v(1), vec![v(80), v(2)])),
            effect: Effect::DeliversOn { host: fig1_hosts::H1, port: 80 },
            reference_fix: "Deleting the WebLoadBalancer tuple".into(),
            budget: SearchBudget::default(),
            sim: SimConfig::default(),
            op_repairs: true,
        }
    }

    /// All five scenarios in Table 1 order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::q1_copy_paste(),
            Scenario::q2_forwarding_error(),
            Scenario::q3_policy_update(),
            Scenario::q4_forgotten_packets(),
            Scenario::q5_mac_learning(),
        ]
    }

    /// Q1 scaled onto a campus topology with `switches` total switches —
    /// the Fig. 9c scalability sweep. The Fig. 1 fixture is embedded as
    /// switches 1–3 and the campus carries background traffic.
    pub fn q1_on_campus(switches: usize) -> Scenario {
        let mut s = Scenario::q1_copy_paste();
        let params = mpr_sdn::topology::CampusParams::with_total_switches(
            switches.saturating_sub(5).max(1),
        );
        let campus = mpr_sdn::topology::campus(&params);
        // Graft the campus onto S1 and generate background host pairs.
        let mut topo = (*s.topology).clone();
        let base = 200i64;
        for sw in &campus.switches {
            topo.add_switch(base + sw);
        }
        for h in &campus.hosts {
            topo.add_host(base * 10 + h);
        }
        // Recreate campus links under the offset ids.
        for sw in &campus.switches {
            for (_, (peer, _)) in campus.links_of(NodeRef::Switch(*sw)) {
                let a = NodeRef::Switch(base + sw);
                let b = match peer {
                    NodeRef::Switch(t) => NodeRef::Switch(base + t),
                    NodeRef::Host(h) => NodeRef::Host(base * 10 + h),
                };
                // connect() deduplicates nothing; add each link once.
                if matches!(peer, NodeRef::Host(_)) || *sw < peer.id() {
                    topo.connect(a, b);
                }
            }
        }
        topo.connect(NodeRef::Switch(base + 1), NodeRef::Switch(1));
        s.topology = Arc::new(topo);
        // Campus hosts send background traffic; with no proactive routes
        // installed (every setup leaves `proactive_routes` off) each flow
        // misses at its ingress switch and punts to the controller.
        let hosts: Vec<i64> = s.topology.hosts.iter().copied().filter(|h| *h >= base * 10).collect();
        let mut seq = 5_000_000u64;
        let mut extra = Vec::new();
        for (i, h) in hosts.iter().enumerate() {
            let dst = hosts[(i * 7 + 3) % hosts.len()];
            if dst != *h {
                extra.push((*h, Packet::icmp(seq, *h, dst)));
                seq += 1;
            }
        }
        s.workload.extend(extra);
        s.id = format!("Q1@{switches}sw");
        s
    }

    /// Q1 scaled onto a fat-tree/Clos fabric with roughly `switches` total
    /// switches — the fig9c-XL sweep (169 → 10k). Same shape as
    /// [`Scenario::q1_on_campus`] but over [`mpr_sdn::topology::fat_tree_into`],
    /// whose host count is capped so the 10k-switch point stays runnable;
    /// background traffic is additionally capped at 1024 flows to keep the
    /// workload size independent of fabric scale.
    pub fn q1_on_fabric(switches: usize) -> Scenario {
        let mut s = Scenario::q1_copy_paste();
        let params = mpr_sdn::topology::FabricParams::with_total_switches(
            switches.saturating_sub(5).max(4),
        );
        // Build the fabric straight into the Q1 topology under offset
        // switch ids (fabric host ids already live in their own 10M+
        // range), so no second copy of it ever exists.
        let mut topo = (*s.topology).clone();
        let base = 100_000i64;
        mpr_sdn::topology::fat_tree_into(&mut topo, &params, base);
        topo.connect(NodeRef::Switch(base + 1), NodeRef::Switch(1));
        s.topology = Arc::new(topo);
        // Fabric hosts send background traffic, which punts at the ingress
        // switch as on the campus, capped so workload growth doesn't drown
        // the scaling signal.
        let hosts: Vec<i64> =
            s.topology.hosts.iter().copied().filter(|h| *h >= mpr_sdn::topology::fabric_ids::HOST_BASE).collect();
        let mut seq = 6_000_000u64;
        let mut extra = Vec::new();
        for (i, h) in hosts.iter().enumerate().take(1024) {
            let dst = hosts[(i * 7 + 3) % hosts.len()];
            if dst != *h {
                extra.push((*h, Packet::icmp(seq, *h, dst)));
                seq += 1;
            }
        }
        s.workload.extend(extra);
        s.id = format!("Q1@fabric{switches}sw");
        s
    }

    /// Q1 with the program padded to roughly `lines` rules — the Fig. 10
    /// program-size sweep. Padding rules are real policies for inert
    /// switches (high ids), mirroring "policies of an operational zone
    /// switch in the Stanford campus network".
    pub fn q1_padded(lines: usize) -> Scenario {
        let mut s = Scenario::q1_copy_paste();
        let mut src = s.program.to_string();
        let existing = s.program.rules.len();
        for i in 0..lines.saturating_sub(existing) {
            let sw = 1000 + (i as i64 % 400);
            let port = 1 + (i as i64 % 4);
            let dpt = [22, 25, 110, 143, 443, 8080][i % 6];
            src.push_str(&format!(
                "oz{i} FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == {sw}, Hdr == {dpt}, Prt := {port}.\n"
            ));
        }
        s.program = parse_program("q1-padded", &src).expect("padded program parses").into();
        s.id = format!("Q1@{lines}loc");
        s
    }

    /// The mini-Trema port of a scenario (§5.8): the handler compiles to
    /// NDlog, all repair kinds remain legal. For Q1 the program is the
    /// hand-written port in `mpr-langs`; other scenarios reuse their NDlog
    /// programs under Trema legality (the compiled forms are identical).
    pub fn trema_variant(&self) -> Scenario {
        let mut s = self.clone();
        if self.id == "Q1" {
            let port = mpr_langs::trema::q1_trema();
            s.program = port.compile().into();
            s.reference_fix = "Changing Swi == 2 in t7 to Swi == 3".into();
        }
        s.id = format!("{}-trema", self.id);
        s
    }

    /// The mini-Pyretic port (§5.8): `match` admits only equality, so
    /// operator repairs are filtered; Q4 is not expressible (the runtime
    /// sends `PacketOut`s automatically), so `None` is returned for it.
    pub fn pyretic_variant(&self) -> Option<Scenario> {
        if self.id == "Q4" {
            return None; // the Pyretic runtime prevents the bug class
        }
        let mut s = self.clone();
        if self.id == "Q1" {
            let port = mpr_langs::pyretic::q1_pyretic();
            s.program = port.compile().into();
            s.reference_fix = "Changing Swi == 2 in py3 to Swi == 3".into();
        }
        s.id = format!("{}-pyretic", self.id);
        s.op_repairs = false;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_parse_and_validate() {
        for s in Scenario::all() {
            assert!(s.program.validate().is_ok(), "{} invalid", s.id);
            assert!(!s.workload.is_empty(), "{} empty workload", s.id);
            assert!(!s.topology.switches.is_empty());
        }
    }

    #[test]
    fn pyretic_variants_disallow_operator_repairs() {
        // Pyretic's `match` is equality-only (§5.8); the NDlog programs
        // and their Trema ports keep operator repairs.
        for s in Scenario::all() {
            assert!(s.op_repairs && s.trema_variant().op_repairs, "{}", s.id);
            if let Some(p) = s.pyretic_variant() {
                assert!(!p.op_repairs, "{}", p.id);
            }
        }
    }

    #[test]
    fn q1_is_broken_as_described() {
        use mpr_backtest::replay::{replay, BacktestSetup};
        let s = Scenario::q1_copy_paste();
        let setup = BacktestSetup {
            topology: s.topology.clone(),
            codec: s.codec.clone(),
            seeds: s.seeds.clone(),
            workload: Arc::new(s.workload.clone()),
            config: s.sim.clone(),
            proactive_routes: false,
            engine: mpr_runtime::Options::default(),
        };
        let out = replay(&setup, &s.program).unwrap();
        // H2 receives nothing (the symptom) …
        assert_eq!(out.stats.delivered_to(fig1_hosts::H2), 0);
        // … while the background edge traffic and DNS flow normally.
        assert!(out.stats.delivered_to(q1_hosts::H30) > 0);
        assert!(out.stats.delivered_to(q1_hosts::H40) > 0);
        assert!(out.stats.delivered_to(fig1_hosts::DNS) > 0);
        assert!(!s.effect.holds(&out.stats));
    }

    #[test]
    fn q1_reference_fix_heals_the_network() {
        use mpr_backtest::replay::{replay, BacktestSetup};
        use mpr_ndlog::patch::{Edit, Patch};
        use mpr_ndlog::{Expr, ExprSide};
        let s = Scenario::q1_copy_paste();
        let fixed = Patch::single(Edit::SetSelectionExpr {
            rule: "r7".into(),
            sel: 0,
            side: ExprSide::Rhs,
            expr: Expr::int(3),
        })
        .apply(&s.program)
        .unwrap();
        let setup = BacktestSetup {
            topology: s.topology.clone(),
            codec: s.codec.clone(),
            seeds: s.seeds.clone(),
            workload: Arc::new(s.workload.clone()),
            config: s.sim.clone(),
            proactive_routes: false,
            engine: mpr_runtime::Options::default(),
        };
        let out = replay(&setup, &fixed).unwrap();
        assert!(out.stats.delivered_on(fig1_hosts::H2, 80) > 0, "{:?}", out.stats.delivered);
        assert!(s.effect.holds(&out.stats));
    }

    #[test]
    fn q4_drops_exactly_the_first_packets() {
        use mpr_backtest::replay::{replay, BacktestSetup};
        let s = Scenario::q4_forgotten_packets();
        let setup = BacktestSetup {
            topology: s.topology.clone(),
            codec: s.codec.clone(),
            seeds: s.seeds.clone(),
            workload: Arc::new(s.workload.clone()),
            config: s.sim.clone(),
            proactive_routes: false,
            engine: mpr_runtime::Options::default(),
        };
        let out = replay(&setup, &s.program).unwrap();
        // 40 packets; S1's PacketOut saves the first at S1, but S2 has no
        // PacketOut rule: exactly one packet lost.
        assert_eq!(out.stats.delivered_to(fig1_hosts::H1), 39);
        assert_eq!(out.stats.dropped_buffered, 1);
        assert!(!s.effect.holds(&out.stats));
    }

    #[test]
    fn q5_learning_is_dead() {
        use mpr_backtest::replay::{replay, BacktestSetup};
        let s = Scenario::q5_mac_learning();
        let setup = BacktestSetup {
            topology: s.topology.clone(),
            codec: s.codec.clone(),
            seeds: s.seeds.clone(),
            workload: Arc::new(s.workload.clone()),
            config: s.sim.clone(),
            proactive_routes: false,
            engine: mpr_runtime::Options::default(),
        };
        let out = replay(&setup, &s.program).unwrap();
        // DNS background flows via the static rules; nothing learned-based
        // is ever delivered (H1 and C30 get zero).
        assert_eq!(out.stats.delivered_to(fig1_hosts::H1), 0);
        assert_eq!(out.stats.delivered_to(30), 0);
        assert!(out.stats.delivered_to(fig1_hosts::DNS) > 0);
    }

    #[test]
    fn scaling_helpers_produce_bigger_worlds() {
        let s19 = Scenario::q1_on_campus(19);
        let s49 = Scenario::q1_on_campus(49);
        assert!(s49.topology.switches.len() > s19.topology.switches.len());
        assert!(s49.workload.len() >= s19.workload.len());

        let p100 = Scenario::q1_padded(100);
        let p500 = Scenario::q1_padded(500);
        assert_eq!(p100.program.rules.len(), 100);
        assert_eq!(p500.program.rules.len(), 500);
        assert!(p500.program.validate().is_ok());
    }
}
