//! Property test for §4.4's correctness claim: the tagged joint backtest
//! computes, for every candidate, exactly the results of a sequential
//! replay of that candidate — the whole [`SimStats`], on randomly mutated
//! programs, on a network where most switches are never touched as well
//! as on Fig. 1, with and without proactive routes underneath, and with
//! per-candidate manual entries that make the shared flow tables split.
//!
//! The joint backtest is driven both ways it can be fed: from the
//! candidates' whole programs (diffed against the base), and from the
//! rule deltas of the patches that make those programs — what the debugger
//! feeds it. Both must agree with the reference (`common::reference`): one
//! memo-free `inject` + `run` per packet, on a pipelined engine.

mod common;

use common::reference;
use proptest::prelude::*;
use sdn_meta_repair::backtest::mqo::{mqo_replay, mqo_replay_deltas, ExtraFlows, TableFootprint, TagSet};
use sdn_meta_repair::backtest::replay::{BacktestSetup, ReplayOutcome};
use sdn_meta_repair::ndlog::patch::{Edit, Patch, ProgramOutline, RuleDelta};
use sdn_meta_repair::ndlog::{parse_program, CmpOp, Expr, ExprSide, Program, Tuple, Value};
use sdn_meta_repair::sdn::controller::{PktArg, TupleCodec};
use sdn_meta_repair::sdn::flowtable::{Action, FlowEntry, Match};
use sdn_meta_repair::sdn::packet::{Field, Packet};
use sdn_meta_repair::sdn::sim::{SimConfig, SimStats};
use sdn_meta_repair::sdn::topology::{fabric_ids, fat_tree, fig1, fig1_hosts, FabricParams, Topology};
use sdn_meta_repair::trace::workload::Injection;
use std::sync::Arc;

const RULES: [&str; 4] = ["r1", "r2", "r3", "r4"];

/// A network, a four-rule program routing over it, and what the
/// strategies draw from: constants for mutated selections, and a pool of
/// manual entries (priority 50, above the reactive entries).
struct Fixture {
    topology: Topology,
    base: Program,
    consts: Vec<i64>,
    workload: Vec<Injection>,
    pool: Vec<(i64, FlowEntry)>,
    /// The base program's policies, and the workload's source, web and DNS
    /// hosts.
    policies: [(i64, i64, i64); 4],
    hosts: [i64; 3],
}

/// The program `r1`–`r4`, one `(switch, header, port)` policy each.
fn program(policies: [(i64, i64, i64); 4]) -> Program {
    let mut src = String::from(
        "materialize(PacketIn, event, 2, keys()).\n\
         materialize(FlowTable, infinity, 2, keys(0,1)).\n",
    );
    for (id, (swi, hdr, prt)) in RULES.iter().zip(policies) {
        src.push_str(&format!(
            "{id} FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == {swi}, Hdr == {hdr}, Prt := {prt}.\n"
        ));
    }
    parse_program("prop-mqo", &src).unwrap()
}

/// [`program`] in the layout of [`TupleCodec::five_tuple`]: the header is
/// the destination port, and an entry matches source and destination
/// address and port.
fn five_tuple_program(policies: [(i64, i64, i64); 4]) -> Program {
    let mut src = String::from(
        "materialize(PacketIn, event, 6, keys()).\n\
         materialize(FlowTable, infinity, 5, keys(0,1,2,3,4)).\n",
    );
    for (id, (swi, hdr, prt)) in RULES.iter().zip(policies) {
        src.push_str(&format!(
            "{id} FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), \
             Swi == {swi}, Dpt == {hdr}, Prt := {prt}.\n"
        ));
    }
    parse_program("prop-mqo-five-tuple", &src).unwrap()
}

/// HTTP on one flow to `web`, every third packet DNS to `dns`, and every
/// fourth to an address no host has — the packets that still reach the
/// controller when proactive routes cover every real destination.
fn workload(src: i64, web: i64, dns: i64) -> Vec<Injection> {
    (0..24)
        .map(|i| {
            let dst = if i % 4 == 3 { 999 } else if i % 3 == 0 { dns } else { web };
            let p = if i % 3 == 0 {
                Packet::dns(i, src, dst)
            } else {
                let mut p = Packet::http(i, src, dst);
                p.src_port = 7000; // one flow
                p
            };
            (src, p)
        })
        .collect()
}

fn manual(switch: i64, dst_port: i64, actions: Vec<Action>) -> (i64, FlowEntry) {
    (switch, FlowEntry::new(50, Match::any().with(Field::DstPort, dst_port), actions))
}

/// The pool of manual entries around ingress switch `s_in` and two more
/// switches on the paths. Entries 0 and 1 collide (same switch, match and
/// priority, different action); 3 and 4 are cases where the joint replay
/// once disagreed with the simulator: an output to a port with no peer and
/// an explicit punt; 5 rewrites the destination; 6 names a switch the
/// topology does not have; 7 floods, and its copies may punt behind one
/// another (`a_copy_behind_another_copys_punt_hits_its_entry`).
fn pool(s_in: i64, s_a: i64, s_b: i64, other_host: i64) -> Vec<(i64, FlowEntry)> {
    vec![
        manual(s_in, 80, vec![Action::Output(2)]),
        manual(s_in, 80, vec![Action::Output(1)]),
        manual(s_b, 80, vec![Action::Output(2)]),
        manual(s_a, 53, vec![Action::Output(9)]),
        manual(s_in, 53, vec![Action::Controller]),
        manual(s_b, 53, vec![Action::Modify(Field::DstIp, other_host), Action::Output(2)]),
        manual(4242, 80, vec![Action::Output(1)]),
        manual(s_a, 80, vec![Action::Flood]),
    ]
}

/// Fig. 1: three switches, all of them on some path.
fn fig1_fixture() -> Fixture {
    let policies = [(1, 80, 1), (1, 53, 2), (2, 80, 1), (3, 53, 1)];
    let hosts = [fig1_hosts::INTERNET, fig1_hosts::H1, fig1_hosts::DNS];
    Fixture {
        topology: fig1(),
        base: program(policies),
        consts: (1..6).collect(),
        workload: workload(hosts[0], hosts[1], hosts[2]),
        pool: pool(1, 2, 3, fig1_hosts::H2),
        policies,
        hosts,
    }
}

/// A 4-ary fat-tree (20 switches, one host per edge switch) whose traffic
/// stays in pod 0: edge 13 → aggregation 5/6 → edge 14. The cores and the
/// other three pods never see an install.
fn fat_tree_fixture() -> Fixture {
    let host = |i: i64| fabric_ids::HOST_BASE + i;
    let policies = [(13, 80, 1), (13, 53, 2), (5, 80, 4), (14, 80, 3)];
    let hosts = [host(0), host(1), host(5)];
    Fixture {
        topology: fat_tree(&FabricParams { k: 4, hosts_per_edge: 1 }),
        base: program(policies),
        consts: vec![5, 6, 13, 14, 53, 80],
        workload: workload(hosts[0], hosts[1], hosts[2]),
        pool: pool(13, 5, 6, host(2)),
        policies,
        hosts,
    }
}

#[derive(Debug, Clone, Copy)]
enum Net {
    Fig1,
    FatTree,
}

impl Net {
    fn fixture(self) -> Fixture {
        match self {
            Net::Fig1 => fig1_fixture(),
            Net::FatTree => fat_tree_fixture(),
        }
    }
}

impl Fixture {
    fn setup(&self, proactive_routes: bool) -> BacktestSetup {
        BacktestSetup {
            topology: Arc::new(self.topology.clone()),
            codec: TupleCodec::fig2(),
            seeds: vec![],
            workload: Arc::new(self.workload.clone()),
            // No path needs more than five hops; a short TTL keeps the
            // forwarding loops some manual entries close cheap.
            config: SimConfig { max_hops: 8, ..SimConfig::default() },
            proactive_routes,
            engine: sdn_meta_repair::runtime::Options::default(),
        }
    }
}

/// One candidate's edit of the base program; `pick` indexes the fixture's
/// constants.
#[derive(Debug, Clone)]
enum Mutation {
    /// A selection's constant replaced.
    ChangeConst { rule: usize, sel: usize, pick: usize },
    /// A selection's operator flipped.
    Negate { rule: usize, sel: usize },
    /// The rule deleted.
    Delete { rule: usize },
    /// A copy re-pointed at another switch added (the explorer's donor
    /// repair).
    Copy { rule: usize, pick: usize },
}

impl Mutation {
    fn apply(&self, fx: &Fixture) -> Program {
        let mut p = fx.base.clone();
        let konst = |pick: usize| Expr::int(fx.consts[pick % fx.consts.len()]);
        match *self {
            Mutation::ChangeConst { rule, sel, pick } => {
                p.rule_mut(RULES[rule]).unwrap().sels[sel].rhs = konst(pick);
            }
            Mutation::Negate { rule, sel } => {
                let s = &mut p.rule_mut(RULES[rule]).unwrap().sels[sel];
                s.op = s.op.negate();
            }
            Mutation::Delete { rule } => p.rules.retain(|r| r.id != RULES[rule]),
            Mutation::Copy { rule, pick } => {
                let mut copy = p.rule(RULES[rule]).unwrap().clone();
                copy.id = format!("{}_copy", RULES[rule]);
                copy.sels[0].rhs = konst(pick);
                p.rules.push(copy);
            }
        }
        p
    }

    /// The same edit as a patch of the base program.
    fn patch(&self, fx: &Fixture) -> Patch {
        let konst = |pick: usize| Expr::int(fx.consts[pick % fx.consts.len()]);
        let id = |rule: usize| RULES[rule].to_string();
        Patch::single(match *self {
            Mutation::ChangeConst { rule, sel, pick } => {
                Edit::SetSelectionExpr { rule: id(rule), sel, side: ExprSide::Rhs, expr: konst(pick) }
            }
            Mutation::Negate { rule, sel } => {
                let op = fx.base.rule(RULES[rule]).unwrap().sels[sel].op.negate();
                Edit::SetSelectionOp { rule: id(rule), sel, op }
            }
            Mutation::Delete { rule } => Edit::DeleteRule { rule: id(rule) },
            Mutation::Copy { rule, pick } => {
                let mut copy = fx.base.rule(RULES[rule]).unwrap().clone();
                copy.id = format!("{}_copy", RULES[rule]);
                copy.sels[0].rhs = konst(pick);
                Edit::AddRule { rule: copy }
            }
        })
    }
}

/// The rule deltas of `patches`, and the whole programs they apply to.
fn deltas_and_programs(base: &Program, patches: &[Patch]) -> (Vec<RuleDelta>, Vec<Program>) {
    let outline = ProgramOutline::new(base).unwrap();
    let deltas = patches.iter().map(|p| p.delta(base, &outline).unwrap()).collect();
    (deltas, patches.iter().map(|p| p.apply(base).unwrap()).collect())
}

/// A random single-literal mutation.
fn mutant() -> impl Strategy<Value = Mutation> {
    (0usize..4, 0usize..2, prop::option::of(0usize..6)).prop_map(|(rule, sel, pick)| match pick {
        Some(pick) => Mutation::ChangeConst { rule, sel, pick },
        None => Mutation::Negate { rule, sel },
    })
}

/// A structural mutation — the shapes where a candidate's rule list no
/// longer lines up with the base program's.
fn structural_mutant() -> impl Strategy<Value = Mutation> {
    (0usize..4, prop::option::of(0usize..6)).prop_map(|(rule, pick)| match pick {
        Some(pick) => Mutation::Copy { rule, pick },
        None => Mutation::Delete { rule },
    })
}

/// The joint backtest of `cands` (each with its manual entries) — fed the
/// whole programs, and fed `deltas`, the same candidates as rule deltas —
/// against one reference run each: every counter must agree, for the
/// program-fed replay always (it takes what it cannot answer for from its
/// per-candidate fallback) and for the delta-fed one on every candidate it
/// does not hand back. Returns the candidates it hands back.
fn joint_vs_sequential(
    setup: &BacktestSetup,
    base: &Program,
    cands: &[Program],
    deltas: &[RuleDelta],
    extra: &[ExtraFlows],
) -> Result<TagSet, TestCaseError> {
    let joint = mqo_replay(setup, base, cands, extra);
    let from_deltas = mqo_replay_deltas(setup, base, deltas, extra, &[]);
    prop_assert_eq!(joint.len(), cands.len());
    prop_assert_eq!(from_deltas.outcomes.len(), cands.len());
    for (i, cand) in cands.iter().enumerate() {
        let flows = extra.get(i).map_or(&[][..], Vec::as_slice);
        let solo = ReplayOutcome::of(reference::run(setup, cand.clone(), flows, false).unwrap().stats);
        prop_assert_eq!(&joint[i].stats, &solo.stats, "candidate {} stats diverge", i);
        prop_assert_eq!(&joint[i].delivered, &solo.delivered, "candidate {} KS input", i);
        if from_deltas.diverged >> i & 1 == 0 {
            let own = &from_deltas.outcomes[i];
            prop_assert_eq!(&own.stats, &solo.stats, "candidate {} stats, from its delta", i);
            prop_assert_eq!(&own.delivered, &solo.delivered, "candidate {} KS input, from its delta", i);
        }
    }
    Ok(from_deltas.diverged)
}

/// [`joint_vs_sequential`] where the joint replay must answer for every
/// candidate itself.
fn assert_joint_equals_sequential(
    setup: &BacktestSetup,
    base: &Program,
    cands: &[Program],
    deltas: &[RuleDelta],
    extra: &[ExtraFlows],
) -> Result<(), TestCaseError> {
    let handed_back = joint_vs_sequential(setup, base, cands, deltas, extra)?;
    prop_assert_eq!(handed_back, 0, "candidates handed back to the fallback");
    Ok(())
}

/// The mutants as programs (mutated directly, no patch involved) and as
/// the deltas of the equivalent patches — which must apply to those very
/// programs.
fn mutants(fx: &Fixture, mutations: &[&Mutation]) -> Result<(Vec<Program>, Vec<RuleDelta>), TestCaseError> {
    let cands: Vec<Program> = mutations.iter().map(|m| m.apply(fx)).collect();
    let patches: Vec<Patch> = mutations.iter().map(|m| m.patch(fx)).collect();
    let (deltas, applied) = deltas_and_programs(&fx.base, &patches);
    prop_assert_eq!(&applied, &cands);
    Ok((cands, deltas))
}

fn assert_mutants_agree(net: Net, mutations: &[Mutation]) -> Result<(), TestCaseError> {
    let fx = net.fixture();
    let (cands, deltas) = mutants(&fx, &mutations.iter().collect::<Vec<_>>())?;
    assert_joint_equals_sequential(&fx.setup(false), &fx.base, &cands, &deltas, &[])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn joint_equals_sequential(cands in prop::collection::vec(mutant(), 1..6)) {
        assert_mutants_agree(Net::Fig1, &cands)?;
    }

    #[test]
    fn joint_equals_sequential_when_rules_are_added_and_deleted(
        cands in prop::collection::vec(prop_oneof![mutant(), structural_mutant()], 1..6),
    ) {
        assert_mutants_agree(Net::Fig1, &cands)?;
    }

    /// Where sharing can go wrong: candidates start on one set of tables
    /// (empty, or the proactive routes) and leave it one FlowMod or one
    /// manual entry at a time.
    #[test]
    fn joint_equals_sequential_where_tables_are_shared_and_split(
        net in prop::sample::select(vec![Net::Fig1, Net::FatTree]),
        proactive in prop::sample::select(vec![false, true]),
        cands in prop::collection::vec(
            (
                prop_oneof![mutant(), structural_mutant()],
                prop::collection::vec(0usize..8, 0..3),
            ),
            1..7,
        ),
    ) {
        let fx = net.fixture();
        let (programs, deltas) = mutants(&fx, &cands.iter().map(|(m, _)| m).collect::<Vec<_>>())?;
        let extra: Vec<ExtraFlows> = cands
            .iter()
            .map(|(_, picks)| picks.iter().map(|&i| fx.pool[i].clone()).collect())
            .collect();
        assert_joint_equals_sequential(&fx.setup(proactive), &fx.base, &programs, &deltas, &extra)?;
    }
}

// ---------------------------------------------------------------------
// Repeated packets. The joint replay answers an injection from its memo
// when an earlier one from the same host agreed on every field the replay
// reads, and nothing has moved since: the memo must be invisible in every
// counter.

/// The three flows of [`workload`] — HTTP to the web host, DNS to the DNS
/// host, HTTP to an address no host has — in the order `flows` draws, then
/// eight times round all three. Every packet has its own `seq`, payload and
/// source MAC and, unless the codec reads it, source port: fields the
/// replay does not read, which leave the packets of one flow key-equal.
fn repeating_workload(fx: &Fixture, flows: &[usize], codec_reads_src_port: bool) -> Vec<Injection> {
    let [src, web, dns] = fx.hosts;
    let order = flows.iter().copied().chain((0..8).flat_map(|_| 0..3));
    order
        .enumerate()
        .map(|(i, flow)| {
            let seq = i as u64;
            let mut p = match flow {
                0 => Packet::http(seq, src, web),
                1 => Packet::dns(seq, src, dns),
                _ => Packet::http(seq, src, 999),
            };
            p.payload = 64 + 7 * i as u32;
            p.src_mac = 1_000 + i as i64;
            if codec_reads_src_port {
                p.src_port = 7000;
            }
            (src, p)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Repeated key-equal packets under both codecs, with manual entries
    /// from the pool — one of which rewrites the destination: joint equals
    /// sequential on the whole `SimStats`, and the memo answered some of
    /// the repeats.
    #[test]
    fn joint_equals_sequential_when_packets_repeat(
        net in prop::sample::select(vec![Net::Fig1, Net::FatTree]),
        five_tuple in any::<bool>(),
        proactive in prop::sample::select(vec![false, true]),
        flows in prop::collection::vec(0usize..3, 6..18),
        cands in prop::collection::vec(
            (
                prop_oneof![mutant(), structural_mutant()],
                prop::collection::vec(0usize..8, 0..3),
            ),
            1..5,
        ),
    ) {
        let mut fx = net.fixture();
        let mut setup = fx.setup(proactive);
        if five_tuple {
            fx.base = five_tuple_program(fx.policies);
            setup.codec = TupleCodec::five_tuple();
        }
        setup.workload = Arc::new(repeating_workload(&fx, &flows, five_tuple));
        let (programs, deltas) = mutants(&fx, &cands.iter().map(|(m, _)| m).collect::<Vec<_>>())?;
        let extra: Vec<ExtraFlows> = cands
            .iter()
            .map(|(_, picks)| picks.iter().map(|&i| fx.pool[i].clone()).collect())
            .collect();
        assert_joint_equals_sequential(&setup, &fx.base, &programs, &deltas, &extra)?;
        let work = mqo_replay_deltas(&setup, &fx.base, &deltas, &extra, &[]).work;
        prop_assert!(work.replayed > 0, "nothing replayed: {:?}", work);
    }
}

/// A field only the controller reads keeps packets apart. The PacketIn
/// carries the source port, which no entry matches and no host counts by,
/// and the controller releases a packet only from port 7000: HTTP packets
/// from the two ports alternate, each port's packets repeat, and a key
/// without the PacketIn's fields would answer the one with the other's
/// counters.
#[test]
fn a_field_only_the_packet_in_reads_is_in_the_key() {
    let program = parse_program(
        "src-port",
        "materialize(PacketIn, event, 3, keys()).\n\
         materialize(PacketOut, event, 3, keys()).\n\
         p1 PacketOut(@Swi,Hdr,Spt,Prt) :- PacketIn(@C,Swi,Hdr,Spt), Spt == 7000, Prt := 1.\n",
    )
    .unwrap();
    let mut setup = fig1_fixture().setup(false);
    setup.codec.packet_in_args.push(PktArg::Field(Field::SrcPort));
    setup.codec.packet_out_table = Some("PacketOut".into());
    let packets = (0..12).map(|i| {
        let mut p = Packet::http(i, fig1_hosts::INTERNET, fig1_hosts::H1);
        p.src_port = 7000 + i as i64 % 2;
        (fig1_hosts::INTERNET, p)
    });
    setup.workload = Arc::new(packets.collect());
    let (joint, solo) = joint_and_solo(&setup, &program);
    assert_eq!(joint, solo);
    assert_eq!((solo.delivered_to(fig1_hosts::H1), solo.dropped_buffered), (6, 6));
    let work = mqo_replay_deltas(&setup, &program, &[RuleDelta::default()], &[], &[]).work;
    assert_eq!(work.replayed, 8, "{work:?}");
}

/// Two candidates install the same manual entry at the ingress switch, a
/// third a colliding one, a fourth none: its tables are split three ways
/// before the first packet. Then `r2` — deleted in candidate 0 only —
/// answers the first DNS punt with a FlowMod for candidates 1, 2 and 3: a
/// strict subset of the variant candidates 0 and 1 share.
#[test]
fn manual_entries_then_a_flowmod_split_a_shared_table() {
    for net in [Net::Fig1, Net::FatTree] {
        let fx = net.fixture();
        let mut cands = vec![fx.base.clone(); 4];
        cands[0].rules.retain(|r| r.id != "r2");
        let mut patches = vec![Patch::default(); 4];
        patches[0] = Patch::single(Edit::DeleteRule { rule: "r2".into() });
        let (deltas, applied) = deltas_and_programs(&fx.base, &patches);
        assert_eq!(applied, cands);
        let (a, b) = (fx.pool[0].clone(), fx.pool[1].clone());
        let extra: Vec<ExtraFlows> = vec![vec![a.clone()], vec![a], vec![b], vec![]];
        let switches = fx.topology.switches.len();
        for proactive in [false, true] {
            let setup = fx.setup(proactive);
            assert_joint_equals_sequential(&setup, &fx.base, &cands, &deltas, &extra).unwrap();
            let footprint = mqo_replay_deltas(&setup, &fx.base, &deltas, &extra, &[]).footprint;
            // The ingress switch ends with one variant per candidate.
            assert!(footprint.variants >= footprint.switches + 3, "{net:?}: {footprint:?}");
            if proactive {
                // The routes are everywhere, and stay shared wherever the
                // candidates were not told apart: at most the ingress and
                // three more switches on the paths fork, three times each.
                assert_eq!(footprint.switches, switches, "{net:?}");
                assert!(footprint.variants <= switches + 4 * 3, "{net:?}: {footprint:?}");
            } else {
                assert!(footprint.switches <= 4, "{net:?}: {footprint:?}");
            }
        }
    }
}

/// A `PacketOut` program: the controller never installs anything, it
/// releases every buffered packet itself — out of `prt` at switch `swi`.
fn packet_out_setup(fx: &Fixture, releases: &[(i64, i64)], max_hops: u32) -> (BacktestSetup, Program) {
    let mut src = String::from(
        "materialize(PacketIn, event, 2, keys()).\n\
         materialize(PacketOut, event, 2, keys()).\n",
    );
    for (i, (swi, prt)) in releases.iter().enumerate() {
        src.push_str(&format!(
            "p{i} PacketOut(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == {swi}, Prt := {prt}.\n"
        ));
    }
    let mut setup = fx.setup(false);
    setup.codec.packet_out_table = Some("PacketOut".into());
    setup.config.max_hops = max_hops;
    (setup, parse_program("packet-out", &src).unwrap())
}

fn joint_and_solo(setup: &BacktestSetup, program: &Program) -> (SimStats, SimStats) {
    let joint = mqo_replay(setup, program, std::slice::from_ref(program), &[]);
    let from_delta = mqo_replay_deltas(setup, program, &[RuleDelta::default()], &[], &[]).outcomes;
    let solo = reference::run(setup, program.clone(), &[], false).unwrap();
    assert_eq!(from_delta[0].stats, joint[0].stats);
    (joint.into_iter().next().unwrap().stats, solo.stats)
}

/// A released packet keeps its hop count: S2 and S3 bounce every packet
/// to each other by `PacketOut`, and only the TTL guard ends it.
#[test]
fn released_packets_keep_counting_hops() {
    let fx = fig1_fixture();
    let (setup, program) = packet_out_setup(&fx, &[(1, 1), (2, 2), (3, 3)], 8);
    let (joint, solo) = joint_and_solo(&setup, &program);
    assert_eq!(joint, solo);
    assert_eq!(joint.dropped_ttl, fx.workload.len() as u64);
    assert_eq!(joint.hops, 8 * fx.workload.len() as u64);
}

/// A `PacketOut` that drops, and one to a port with no peer, are policy
/// drops — and both release the buffer.
#[test]
fn packet_out_drop_and_dead_port_are_policy_drops() {
    let fx = fig1_fixture();
    for port in [-1, 9] {
        let (setup, program) = packet_out_setup(&fx, &[(1, port)], 64);
        let (joint, solo) = joint_and_solo(&setup, &program);
        assert_eq!(joint, solo, "PacketOut to port {port}");
        assert_eq!(joint.dropped_policy, fx.workload.len() as u64);
        assert_eq!(joint.dropped_buffered, 0);
    }
}

/// Two copies of one packet racing for the controller. `p0` and `p1` both
/// release every packet punted at S1 out of port 1, so two copies reach S2
/// in one hop round; `f` answers a punt at S2 with an entry there. The
/// simulator answers the first copy's punt on arrival, and the second copy
/// hits the entry: 26 packet-ins, 2 packets dropped at the buffer, 23
/// delivered. The joint replay once looked every flight of a hop round up
/// before it answered the round's punts, and read 28 / 4 / 22 for the
/// candidate, which it kept. It answers a flight's punt before the next
/// flight is looked up now, and agrees.
#[test]
fn a_copy_behind_another_copys_punt_hits_its_entry() {
    let fx = fig1_fixture();
    let (setup, _) = packet_out_setup(&fx, &[], 64);
    let base = parse_program(
        "race",
        "materialize(PacketIn, event, 2, keys()).\n\
         materialize(PacketOut, event, 2, keys()).\n\
         materialize(FlowTable, infinity, 2, keys(0,1)).\n\
         p0 PacketOut(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Prt := 1.\n\
         p1 PacketOut(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Prt := 1.\n\
         f FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Prt := 1.\n",
    )
    .unwrap();
    let (deltas, cands) = deltas_and_programs(&base, &[Patch::default(), delete("p1")]);
    let solo = reference::run(&setup, cands[0].clone(), &[], false).unwrap().stats;
    assert_eq!((solo.packet_ins, solo.dropped_buffered, solo.total_delivered()), (26, 2, 23));
    assert_joint_equals_sequential(&setup, &base, &cands, &deltas, &[]).unwrap();
}

/// A candidate's copies keep the order it sent them in. At S1, `b`
/// releases a packet to S2 and `a` one to S3, where `f` answers with an
/// entry at S2. Candidate 0 drops `a`; candidate 1 drops `b` and adds `b2`,
/// `b` again after `a`, so it sends its copy to S3 first, and that copy's
/// punt installs the entry its copy to S2 then hits. Candidate 0's copy to
/// S2 travels first. Candidate 1's once joined it there, ahead of its own
/// copy to S3, and missed: 50 packet-ins, 26 packets dropped at the buffer
/// and 11 delivered, where its sequential replay reads 48, 24 and 12.
#[test]
fn a_candidates_copies_keep_the_order_it_sent_them_in() {
    let fx = fig1_fixture();
    let (setup, _) = packet_out_setup(&fx, &[], 64);
    let src = "materialize(PacketIn, event, 2, keys()).\n\
               materialize(PacketOut, event, 2, keys()).\n\
               materialize(FlowTable, infinity, 2, keys(0,1)).\n\
               b PacketOut(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Prt := 1.\n\
               a PacketOut(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Prt := 2.\n\
               f FlowTable(@Nxt,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Nxt := 2, Prt := 1.\n";
    let base = parse_program("order", src).unwrap();
    let mut b2 = base.rule("b").unwrap().clone();
    b2.id = "b2".into();
    let patches = [delete("a"), Patch::of(vec![Edit::DeleteRule { rule: "b".into() }, Edit::AddRule { rule: b2 }])];
    let (deltas, cands) = deltas_and_programs(&base, &patches);
    assert_joint_equals_sequential(&setup, &base, &cands, &deltas, &[]).unwrap();
}

/// A flood puts several copies of a packet in flight at once. Here no copy
/// reaches the controller — the proactive routes carry every copy, round
/// S1–S2–S3 until the TTL guard.
#[test]
fn flooding_matches_the_simulator_when_no_copy_punts() {
    let fx = fig1_fixture();
    let setup = fx.setup(true);
    let flood: ExtraFlows = vec![manual(2, 80, vec![Action::Flood])];
    let mut known = fx.workload.clone();
    known.retain(|(_, p)| p.dst_ip != 999);
    let setup = BacktestSetup { workload: Arc::new(known), ..setup };
    let cands = vec![fx.base.clone(), fx.base.clone()];
    let extra = vec![flood, vec![]];
    let untouched = vec![RuleDelta::default(); 2];
    assert_joint_equals_sequential(&setup, &fx.base, &cands, &untouched, &extra).unwrap();
    let joint = mqo_replay(&setup, &fx.base, &cands, &extra);
    assert_eq!(joint[0].stats.packet_ins, 0);
    assert!(joint[0].stats.dropped_ttl > 0, "the flood never looped: {:?}", joint[0].stats);
    assert!(joint[0].stats.hops > joint[1].stats.hops);
}

/// An intermediate *event* table between the PacketIn and the reply:
/// `Seen` is derived for every HTTP punt and releases the packet out of
/// `prt`. Fig. 1, six HTTP packets from the Internet to H1.
fn seen_setup(prt: i64) -> (BacktestSetup, Program) {
    let fx = fig1_fixture();
    let program = parse_program(
        "seen",
        &format!(
            "materialize(PacketIn, event, 2, keys()).\n\
             materialize(Seen, event, 2, keys()).\n\
             materialize(PacketOut, event, 2, keys()).\n\
             s1 Seen(@C,Swi,Hdr) :- PacketIn(@C,Swi,Hdr), Hdr == 80.\n\
             s2 PacketOut(@Swi,Hdr,Prt) :- Seen(@C,Swi,Hdr), Prt := {prt}.\n"
        ),
    )
    .unwrap();
    let mut setup = fx.setup(false);
    setup.codec.packet_out_table = Some("PacketOut".into());
    let http = (0..6).map(|i| (fig1_hosts::INTERNET, Packet::http(i, fig1_hosts::INTERNET, fig1_hosts::H1)));
    setup.workload = Arc::new(http.collect());
    (setup, program)
}

/// A derived event is transient in the joint replay as it is in the
/// engine: every identical `Seen` tuple triggers `s2` again. Stored as
/// state it was deduplicated, and only the first packet was ever released
/// (1 delivered, 5 dropped at the buffer, where the sequential replay
/// delivers all 6).
#[test]
fn a_derived_event_triggers_every_time_it_is_derived() {
    let (setup, program) = seen_setup(1);
    let (joint, solo) = joint_and_solo(&setup, &program);
    assert_eq!(joint, solo);
    assert_eq!(joint.delivered.get(&fig1_hosts::H1), Some(&6), "{joint:?}");
    assert_eq!((joint.packet_ins, joint.packet_outs, joint.dropped_buffered), (12, 12, 0));
}

/// Candidates that edit the rule *behind* the event table — the one `Seen`
/// triggers — and the one in front of it, next to the untouched base:
/// the event reaches each candidate's own copy of `s2`, for its tags only.
#[test]
fn candidates_may_edit_the_rule_an_event_table_triggers() {
    let (setup, base) = seen_setup(1);
    let assign =
        |value: i64| Edit::SetAssignExpr { rule: "s2".into(), var: "Prt".into(), expr: Expr::int(value) };
    let patches = vec![
        Patch::default(),
        Patch::single(assign(2)),
        Patch::single(assign(9)),
        Patch::single(Edit::SetSelectionOp { rule: "s1".into(), sel: 0, op: CmpOp::Ne }),
        Patch::single(Edit::DeleteRule { rule: "s2".into() }),
    ];
    let (deltas, cands) = deltas_and_programs(&base, &patches);
    assert_joint_equals_sequential(&setup, &base, &cands, &deltas, &[]).unwrap();
    let joint = mqo_replay(&setup, &base, &cands, &[]);
    let delivered: Vec<u64> =
        joint.iter().map(|o| o.delivered.get(&fig1_hosts::H1).copied().unwrap_or(0)).collect();
    assert_eq!(delivered[0], 6, "the base releases every packet towards H1");
    assert_eq!(delivered[3..], [0, 0], "no `Seen`, or nothing behind it: every packet stays buffered");
    assert_eq!(joint[4].stats.dropped_buffered, 6);
}

// ---------------------------------------------------------------------
// Variants that merge again. A switch's table variants are told apart by a
// FlowMod and are one again when their tables are the same — entry for
// entry, in order. Candidates that route around each other install the same
// entries on the switches behind the fork a packet apart; that is where a
// merge happens, and where a wrong one would show.

/// Fig. 1 with both ways round it: HTTP for H1 leaves S1 for S2 directly
/// (`h1`, port 1) or over S3 (port 2, then `h3`); DNS leaves S1 for S3
/// directly (`d1`, port 2) or over S2 (port 1, then `d2`). Whichever way a
/// candidate sends them, S2 and S3 end up with the same entries — installed
/// by whoever's packet gets there first, a packet before the others'.
const DETOUR_RULES: [&str; 6] = ["h1", "d1", "h2", "d2", "h3", "d3"];

fn detour_program() -> Program {
    let policies = [(1, 80, 1), (1, 53, 2), (2, 80, 1), (2, 53, 2), (3, 80, 3), (3, 53, 1)];
    let mut src = String::from(
        "materialize(PacketIn, event, 2, keys()).\n\
         materialize(FlowTable, infinity, 2, keys(0,1)).\n",
    );
    for (id, (swi, hdr, prt)) in DETOUR_RULES.iter().zip(policies) {
        src.push_str(&format!(
            "{id} FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == {swi}, Hdr == {hdr}, Prt := {prt}.\n"
        ));
    }
    parse_program("detour", &src).unwrap()
}

/// One candidate: the ports `h1` and `d1` send HTTP and DNS out of at S1,
/// and a rule it deletes (an index into [`DETOUR_RULES`]).
type Detour = (i64, i64, Option<usize>);

fn detour_patch(&(http, dns, deleted): &Detour) -> Patch {
    let port =
        |rule: &str, value: i64| Edit::SetAssignExpr { rule: rule.into(), var: "Prt".into(), expr: Expr::int(value) };
    let mut edits = vec![port("h1", http), port("d1", dns)];
    edits.extend(deleted.map(|rule| Edit::DeleteRule { rule: DETOUR_RULES[rule].into() }));
    Patch::of(edits)
}

/// Fig. 1, the packets `http` says: HTTP for H1 (`true`) or DNS for the DNS
/// server, all from the Internet.
fn detour_setup(http: &[bool]) -> BacktestSetup {
    let src = fig1_hosts::INTERNET;
    let packet = |(i, &http): (usize, &bool)| match http {
        true => (src, Packet::http(i as u64, src, fig1_hosts::H1)),
        false => (src, Packet::dns(i as u64, src, fig1_hosts::DNS)),
    };
    let mut setup = fig1_fixture().setup(false);
    setup.workload = Arc::new(http.iter().enumerate().map(packet).collect());
    setup
}

/// What the candidates' own networks hold after one reference run each:
/// the switches any of them installed on and, per switch, the distinct
/// tables — entries in match order — among them.
fn distinct_tables(setup: &BacktestSetup, cands: &[Program], extra: &[ExtraFlows]) -> TableFootprint {
    let run = |(i, cand): (usize, &Program)| reference::run(setup, cand.clone(), extra.get(i).map_or(&[], Vec::as_slice), false);
    reference::footprint(cands.iter().enumerate().map(|c| run(c).unwrap()))
}

/// Joint equals sequential on the whole `SimStats`, nobody is handed back,
/// and the joint replay is left with one variant per distinct table.
/// Returns that footprint.
fn assert_variants_are_the_distinct_tables(
    setup: &BacktestSetup,
    base: &Program,
    patches: &[Patch],
    extra: &[ExtraFlows],
) -> Result<TableFootprint, TestCaseError> {
    let (deltas, cands) = deltas_and_programs(base, patches);
    assert_joint_equals_sequential(setup, base, &cands, &deltas, extra)?;
    let footprint = mqo_replay_deltas(setup, base, &deltas, extra, &[]).footprint;
    prop_assert_eq!(footprint, distinct_tables(setup, &cands, extra));
    Ok(footprint)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Diverge and reconverge: two to six candidates, each with its own way
    /// round Fig. 1 (and perhaps a rule short), over a random sequence of
    /// HTTP and DNS packets.
    #[test]
    fn joint_equals_sequential_where_variants_merge_again(
        cands in prop::collection::vec((1i64..3, 1i64..3, prop::option::of(0usize..6)), 2..7),
        http in prop::collection::vec(prop::sample::select(vec![true, false]), 8..24),
    ) {
        let patches: Vec<Patch> = cands.iter().map(detour_patch).collect();
        assert_variants_are_the_distinct_tables(&detour_setup(&http), &detour_program(), &patches, &[])?;
    }
}

/// The family's smallest member, counted: one candidate sends HTTP straight
/// to S2, the other over S3. They are told apart at S1 for good; at S2 the
/// second installs what the first holds one packet later, and S2 is one
/// variant again — with a variant per fork it stayed two.
#[test]
fn a_table_installed_a_packet_later_is_the_same_variant() {
    let patches = [detour_patch(&(1, 2, None)), detour_patch(&(2, 2, None))];
    let setup = detour_setup(&[true; 6]);
    let footprint = assert_variants_are_the_distinct_tables(&setup, &detour_program(), &patches, &[]).unwrap();
    // S1: two variants. S2: one, shared. S3: the detour's alone.
    assert_eq!(footprint, TableFootprint { switches: 3, variants: 4 });
}

/// A candidate that coincides with another and then diverges again forks a
/// second time. Both send HTTP to S2, one of them over S3: after the HTTP
/// packets S2 is one variant. Then the second sends its DNS over S2 as
/// well, where the first sends it straight to S3: the DNS entry lands at
/// S2 for the second alone, and S2 is two variants.
#[test]
fn a_merged_variant_forks_again_when_its_candidates_part() {
    let patches = [detour_patch(&(1, 2, None)), detour_patch(&(2, 1, None))];
    let mut packets = vec![true; 5];
    let merged = assert_variants_are_the_distinct_tables(&detour_setup(&packets), &detour_program(), &patches, &[]);
    // S1: two variants. S2: one. S3: the HTTP detour's.
    assert_eq!(merged.unwrap(), TableFootprint { switches: 3, variants: 4 });
    packets.extend([false; 5]);
    let parted = assert_variants_are_the_distinct_tables(&detour_setup(&packets), &detour_program(), &patches, &[]);
    // S2 forks; S3 gains the first candidate's DNS entry, the second
    // candidate's follows a packet later into the table that holds its
    // HTTP entry: two variants there too.
    assert_eq!(parted.unwrap(), TableFootprint { switches: 3, variants: 6 });
}

/// Two candidates install the same two entries at S1 in opposite order.
/// The entries tie — one priority, one constrained field each — and every
/// packet of the flow matches both, so the earlier install wins: the first
/// candidate's packets leave for S2 and reach H1, the second's leave for
/// S3 and are never answered. As sets the two tables are equal; merged,
/// one candidate would take the other's side of the tie.
#[test]
fn tables_equal_as_sets_but_not_in_order_stay_apart() {
    let fx = fig1_fixture();
    let to_s2 = manual(1, 80, vec![Action::Output(1)]);
    let to_s3 = (1, FlowEntry::new(50, Match::any().with(Field::SrcPort, 7000), vec![Action::Output(2)]));
    let extra = vec![vec![to_s2.clone(), to_s3.clone()], vec![to_s3, to_s2]];
    let mut setup = fx.setup(false);
    let flow = (0..6).map(|i| {
        let mut p = Packet::http(i, fig1_hosts::INTERNET, fig1_hosts::H1);
        p.src_port = 7000;
        (fig1_hosts::INTERNET, p)
    });
    setup.workload = Arc::new(flow.collect());
    let patches = [Patch::default(), Patch::default()];
    let footprint = assert_variants_are_the_distinct_tables(&setup, &fx.base, &patches, &extra).unwrap();
    // S1: one variant each. S2: the first candidate's HTTP entry.
    assert_eq!(footprint, TableFootprint { switches: 2, variants: 3 });
    let joint = mqo_replay_deltas(&setup, &fx.base, &vec![RuleDelta::default(); 2], &extra, &[]);
    let delivered: Vec<u64> = joint.outcomes.iter().map(|o| o.stats.delivered_to(fig1_hosts::H1)).collect();
    assert_eq!(delivered, [5, 0], "the tie goes to the entry installed first");
    assert_eq!(joint.outcomes[1].stats.dropped_buffered, 6, "S3 has no rule for HTTP");
}

// ---------------------------------------------------------------------
// Derived controller state. The joint controller runs the engine's rounds:
// a state head is held back until its round begins, a pair of one round's
// deltas fires once, an output table is state like any other — and what it
// does not mirror (primary-key replacement in a table some rule reads) it
// hands back per candidate. Four named shapes, each with the counters the
// joint replay read before, a replaced and a seeded output tuple, then two
// generated families.

/// Fig. 1, six packets from the Internet to H1 with destination ports
/// 80 53 80 53 80 80; `PacketOut` decoded next to `FlowTable`.
fn shape_setup() -> BacktestSetup {
    let packets = [80, 53, 80, 53, 80, 80].into_iter().enumerate().map(|(i, port)| {
        let mut p = Packet::http(i as u64, fig1_hosts::INTERNET, fig1_hosts::H1);
        p.dst_port = port;
        (fig1_hosts::INTERNET, p)
    });
    let mut setup = fig1_fixture().setup(false);
    setup.codec.packet_out_table = Some("PacketOut".into());
    setup.workload = Arc::new(packets.collect());
    setup
}

/// `(flow_mods, packet_outs, packets delivered to H1, packet_ins)`.
fn counters(stats: &SimStats) -> (u64, u64, u64, u64) {
    let delivered = stats.delivered.get(&fig1_hosts::H1).copied().unwrap_or(0);
    (stats.flow_mods, stats.packet_outs, delivered, stats.packet_ins)
}

/// Replays `patches` of `src` jointly and one by one
/// ([`joint_vs_sequential`]). Returns the reference's counters per
/// candidate, and who was handed back.
fn replay_shape(src: &str, patches: &[Patch]) -> (Vec<(u64, u64, u64, u64)>, TagSet) {
    let setup = shape_setup();
    let base = parse_program("shape", src).unwrap();
    let (deltas, cands) = deltas_and_programs(&base, patches);
    let handed_back = joint_vs_sequential(&setup, &base, &cands, &deltas, &[]).unwrap();
    let solo = cands.iter().map(|c| counters(&reference::run(&setup, c.clone(), &[], false).unwrap().stats));
    (solo.collect(), handed_back)
}

fn delete(rule: &str) -> Patch {
    Patch::single(Edit::DeleteRule { rule: rule.into() })
}

/// `b` joins the packet-in with the `Last` that `a` derives from it.
fn last_program(keys: &str) -> String {
    format!(
        "materialize(PacketIn, event, 2, keys()).\n\
         materialize(Last, infinity, 2, keys({keys})).\n\
         materialize(FlowTable, infinity, 2, keys(0,1)).\n\
         a Last(@C,Swi,Hdr) :- PacketIn(@C,Swi,Hdr).\n\
         b FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Last(@C,Swi,Hdr), Prt := 1.\n"
    )
}

/// Shape (i): a state head is not visible to the rules its own delta
/// fires next. The engine holds `Last` back for a round, so `b` answers
/// the *second* packet-in of a (switch, header) pair; read from a per-tuple
/// queue, `b` saw the `Last` its own packet-in had just derived and the
/// joint replay counted (4, 0, 2, 4).
#[test]
fn a_state_head_waits_for_its_round() {
    let (solo, handed_back) = replay_shape(&last_program("0,1"), &[Patch::default(), delete("a")]);
    assert_eq!(solo, [(3, 0, 0, 6), (0, 0, 0, 6)]);
    assert_eq!(handed_back, 0, "no primary key, nothing to hand back");
}

/// Shape (ii): keyed on the switch alone, every other header replaces the
/// `Last` before it, and retracts what the old one supported. The joint
/// state keeps every payload — (4, 0, 2, 4), as if nothing were keyed — so
/// the candidate that meets a second payload is handed back; the one
/// without `a` never derives a `Last` and stays.
#[test]
fn a_replaced_payload_hands_its_candidate_back() {
    let (solo, handed_back) = replay_shape(&last_program("0"), &[Patch::default(), delete("a")]);
    assert_eq!(solo, [(1, 0, 0, 6), (0, 0, 0, 6)]);
    assert_eq!(handed_back, 0b01);
}

/// Shape (iii): `A` and `B`, derived from one packet-in, are deltas of one
/// round, and their pair fires `c` once — when `B`, the later atom, is the
/// delta. One delta at a time it fired once per delta: (0, 8, 4, 10).
#[test]
fn a_pair_of_one_rounds_deltas_fires_once() {
    let src = "materialize(PacketIn, event, 2, keys()).\n\
               materialize(A, infinity, 2, keys(0,1)).\n\
               materialize(B, infinity, 2, keys(0,1)).\n\
               materialize(PacketOut, event, 2, keys()).\n\
               a A(@C,Swi,Hdr) :- PacketIn(@C,Swi,Hdr).\n\
               b B(@C,Swi,Hdr) :- PacketIn(@C,Swi,Hdr).\n\
               c PacketOut(@Swi,Hdr,Prt) :- A(@C,Swi,Hdr), B(@C,Swi,Hdr), Prt := 1.\n";
    let (solo, handed_back) = replay_shape(src, &[Patch::default(), delete("b")]);
    assert_eq!(solo, [(0, 4, 2, 8), (0, 0, 0, 6)]);
    assert_eq!(handed_back, 0);
}

/// Shape (iv): an output table in a rule body. An output head is state
/// like any other — held back for a round, then a row `r2` reads — and a
/// control message too. Kept apart from the state and never queued, `r2`
/// never fired: (1, 0, 0, 6), the counters of the candidate without it,
/// and whoever kept `r2` was handed back.
#[test]
fn an_output_table_in_a_rule_body_is_read_like_any_state() {
    let src = "materialize(PacketIn, event, 2, keys()).\n\
               materialize(FlowTable, infinity, 2, keys(0,1)).\n\
               r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.\n\
               r2 FlowTable(@Nxt,Hdr,Prt) :- FlowTable(@Swi,Hdr,Prt), Swi == 1, Nxt := 2.\n";
    let (solo, handed_back) = replay_shape(src, &[Patch::default(), delete("r2")]);
    assert_eq!(solo, [(2, 0, 3, 3), (1, 0, 0, 6)]);
    assert_eq!(handed_back, 0);
}

/// An output table no rule reads: a second payload under the key replaces
/// the first, as the engine replaces it, and the first derived again is a
/// change again. `w` files every packet's destination port under one key
/// at S3, off the path, so the ports 80 53 80 53 80 80 send five FlowMods;
/// had the replaced payload stayed held, the third and fifth would be
/// silent.
#[test]
fn a_replaced_output_payload_is_sent_again() {
    let src = "materialize(PacketIn, event, 2, keys()).\n\
               materialize(FlowTable, infinity, 2, keys(0)).\n\
               w FlowTable(@Sw,Hdr,Prt) :- PacketIn(@C,Swi,Prt), Sw := 3, Hdr := 80.\n";
    let (solo, handed_back) = replay_shape(src, &[Patch::default(), delete("w")]);
    assert_eq!(solo, [(5, 0, 0, 6), (0, 0, 0, 6)]);
    assert_eq!(handed_back, 0);
}

/// A seeded output tuple is held before the first packet: `r1` deriving it
/// again is silent in the engine, and must be in the joint replay. Fig. 1,
/// 30 HTTP packets from the Internet to H2, `FlowTable(@1,80,2)` seeded.
/// Output tuples once had an index of their own that never saw the seeds:
/// the joint replay sent the FlowMod and read (1, 59) for
/// `(flow_mods, hops)`, where the reference reads (0, 30), and kept the
/// candidate.
#[test]
fn a_seeded_output_tuple_derived_again_sends_nothing() {
    let base = parse_program(
        "seeded-output",
        "materialize(PacketIn, event, 2, keys()).\n\
         materialize(FlowTable, infinity, 2, keys(0)).\n\
         r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 2.\n",
    )
    .unwrap();
    let packets = (0..30).map(|i| (fig1_hosts::INTERNET, Packet::http(i, 50 + (i as i64 % 3), fig1_hosts::H2)));
    let setup = BacktestSetup {
        seeds: vec![Tuple::new("FlowTable", Value::Int(1), vec![Value::Int(80), Value::Int(2)])],
        workload: Arc::new(packets.collect()),
        config: SimConfig::default(),
        ..fig1_fixture().setup(false)
    };
    let (deltas, cands) = deltas_and_programs(&base, &[Patch::default()]);
    let solo = reference::run(&setup, cands[0].clone(), &[], false).unwrap().stats;
    assert_eq!((solo.flow_mods, solo.hops), (0, 30));
    let joint = mqo_replay_deltas(&setup, &base, &deltas, &[], &[]);
    assert_eq!(joint.diverged, 0);
    let own = &joint.outcomes[0].stats;
    assert_eq!((own.flow_mods, own.hops), (0, 30));
    assert_eq!(*own, solo);
}

/// A candidate rule that parses, validates and patches in, and does not
/// compile: the reference refuses the candidate, and the joint replay —
/// which used to skip the rule, answering for the candidate as if it had
/// deleted it — hands it back, leaving its neighbours joint.
#[test]
fn a_candidate_that_does_not_compile_is_handed_back() {
    let fx = fig1_fixture();
    let setup = fx.setup(false);
    let unbound = Patch::single(Edit::SetSelectionExpr {
        rule: "r1".into(),
        sel: 0,
        side: ExprSide::Lhs,
        expr: Expr::var("Zed"),
    });
    let patches = [Mutation::Negate { rule: 2, sel: 0 }.patch(&fx), unbound, delete("r2")];
    let (deltas, cands) = deltas_and_programs(&fx.base, &patches);
    let err = reference::run(&setup, cands[1].clone(), &[], false).unwrap_err();
    assert!(err.contains("unbound variable `Zed`"), "{err}");
    let joint = mqo_replay_deltas(&setup, &fx.base, &deltas, &[], &[]);
    assert_eq!(joint.diverged, 0b010);
    for i in [0, 2] {
        let own = reference::run(&setup, cands[i].clone(), &[], false).unwrap();
        assert_eq!(joint.outcomes[i].stats, own.stats, "candidate {i}");
    }
}

/// A step that draws an `f_unique` id. The engine never files one, so each
/// packet-in draws a new port, which replaces the entry before it. The
/// joint replay used to draw once for both copies of the base and replay
/// its memo: (4, 0, 0, 6) each, and nobody handed back. Whoever draws is
/// handed back now; the candidate without `r1` draws nothing and stays.
#[test]
fn a_step_that_draws_an_f_unique_id_hands_its_candidates_back() {
    let src = "materialize(PacketIn, event, 2, keys()).\n\
               materialize(FlowTable, infinity, 2, keys(0)).\n\
               r1 FlowTable(@S,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), S := 3, Prt := f_unique().\n";
    let (solo, handed_back) = replay_shape(src, &[Patch::default(), Patch::default(), delete("r1")]);
    assert_eq!(solo, [(6, 0, 0, 6), (6, 0, 0, 6), (0, 0, 0, 6)]);
    assert_eq!(handed_back, 0b011);
}

/// The runaway guard is the engine's per-step budget: a seed whose
/// recursion fires 200 times fails the reference run under a budget of
/// 100, and the joint replay hands its candidate back; under 1 000 both
/// run it through, and agree.
#[test]
fn a_step_over_the_engines_budget_hands_its_candidates_back() {
    let src = "materialize(PacketIn, event, 2, keys()).\n\
               materialize(FlowTable, infinity, 2, keys(0,1)).\n\
               r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.\n\
               c Chain(@C,N) :- Chain(@C,M), M < 200, N := M + 1.\n";
    let base = parse_program("runaway", src).unwrap();
    let (deltas, cands) = deltas_and_programs(&base, &[Patch::default()]);
    let mut setup = shape_setup();
    setup.seeds = vec![Tuple::new("Chain", setup.codec.controller_loc.clone(), vec![Value::Int(0)])];
    setup.engine.max_derivations = 100;
    let err = reference::run(&setup, cands[0].clone(), &[], false).unwrap_err();
    assert!(err.contains("derivation limit"), "{err}");
    assert_eq!(mqo_replay_deltas(&setup, &base, &deltas, &[], &[]).diverged, 0b1);
    setup.engine.max_derivations = 1_000;
    assert_joint_equals_sequential(&setup, &base, &cands, &deltas, &[]).unwrap();
}

/// The derived-state family on Fig. 1. `r1` derives `Seen` from the
/// packet-in and `r2` joins the packet-in with it into a flow entry; `Seen`
/// is keyed on all its columns, or (`keyed`) on the switch alone, where a
/// second header replaces the first. With `second`, `r3` derives `Also`
/// and `r4` joins the two derived tables into a `PacketOut` event; without,
/// `r3` and `r4` are two of the plain policies. Every rule has two
/// selections, so the mutations of the plain family edit any of them.
fn derived_fixture(keyed: bool, second: bool, picks: &[usize]) -> Fixture {
    let consts = vec![1, 2, 3, 53, 80];
    let c = |i: usize| consts[picks[i] % consts.len()];
    let port = |i: usize| 1 + picks[i] % 2;
    let mut src = format!(
        "materialize(PacketIn, event, 2, keys()).\n\
         materialize(FlowTable, infinity, 2, keys(0,1)).\n\
         materialize(PacketOut, event, 2, keys()).\n\
         materialize(Seen, infinity, 2, keys({})).\n\
         materialize(Also, infinity, 2, keys(0,1)).\n\
         r1 Seen(@C,Swi,Hdr) :- PacketIn(@C,Swi,Hdr), Swi != {}, Hdr != {}.\n\
         r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Seen(@C,Swi,Hdr), Swi != {}, Hdr != {}, Prt := {}.\n",
        if keyed { "0" } else { "0,1" },
        c(0),
        c(1),
        c(2),
        c(3),
        port(4),
    );
    src.push_str(&if second {
        format!(
            "r3 Also(@C,Swi,Hdr) :- PacketIn(@C,Swi,Hdr), Swi != {}, Hdr != {}.\n\
             r4 PacketOut(@Swi,Hdr,Prt) :- Seen(@C,Swi,Hdr), Also(@C,Swi,Hdr), Swi != {}, Hdr != {}, Prt := {}.\n",
            c(5),
            c(6),
            c(7),
            c(8),
            port(9),
        )
    } else {
        "r3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.\n\
         r4 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr == 53, Prt := 1.\n"
            .to_string()
    });
    Fixture { base: parse_program("prop-mqo-derived", &src).unwrap(), consts, ..fig1_fixture() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Candidates that edit the rule deriving the state, the rule joining
    /// it, or the rules behind them: joint equals sequential on the whole
    /// `SimStats`, and without a proper key nobody is handed back.
    #[test]
    fn joint_equals_sequential_on_derived_state(
        keyed in prop::sample::select(vec![false, true]),
        second in prop::sample::select(vec![false, true]),
        picks in prop::collection::vec(0usize..5, 10),
        cands in prop::collection::vec(prop_oneof![mutant(), structural_mutant()], 1..6),
    ) {
        let fx = derived_fixture(keyed, second, &picks);
        let (programs, deltas) = mutants(&fx, &cands.iter().collect::<Vec<_>>())?;
        let mut setup = fx.setup(false);
        setup.codec.packet_out_table = Some("PacketOut".into());
        let handed_back = joint_vs_sequential(&setup, &fx.base, &programs, &deltas, &[])?;
        prop_assert!(keyed || handed_back == 0, "handed back without a key: {:b}", handed_back);
    }
}

/// The output family on Fig. 1: rule bodies read the codec's output
/// tables. `r1` derives a flow entry from the packet-in and `r2` copies an
/// entry of one switch to another; `r3` releases the packet, and `r4`
/// reads the `PacketOut` event into a flow entry of its own. `FlowTable` is
/// keyed on all its columns, or (`keyed`) on the header alone, where a
/// second port replaces the first and `r2` reads the replaced entry.
/// A copy of `r3` answers a punt with two `PacketOut`s, and two copies of
/// the packet race for the controller.
fn output_fixture(keyed: bool, picks: &[usize]) -> Fixture {
    let consts = vec![1, 2, 3, 53, 80];
    let c = |i: usize| consts[picks[i] % consts.len()];
    let port = |i: usize| 1 + picks[i] % 2;
    let src = format!(
        "materialize(PacketIn, event, 2, keys()).\n\
         materialize(FlowTable, infinity, 2, keys({})).\n\
         materialize(PacketOut, event, 2, keys()).\n\
         r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi != {}, Hdr != {}, Prt := {}.\n\
         r2 FlowTable(@Nxt,Hdr,Prt) :- FlowTable(@Swi,Hdr,Prt), Swi == {}, Hdr != {}, Nxt := {}.\n\
         r3 PacketOut(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi != {}, Hdr != {}, Prt := {}.\n\
         r4 FlowTable(@Swi,Hdr,Prt) :- PacketOut(@Swi,Hdr,Out), Swi != {}, Hdr != {}, Prt := {}.\n",
        if keyed { "0" } else { "0,1" },
        c(0),
        c(1),
        port(2),
        c(3),
        c(4),
        1 + picks[5] % 3,
        c(6),
        c(7),
        port(8),
        c(9),
        c(10),
        port(11),
    );
    Fixture { base: parse_program("prop-mqo-output", &src).unwrap(), consts, ..fig1_fixture() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Candidates that edit the rules deriving output tuples or reading
    /// them: joint equals sequential on the whole `SimStats`, and without a
    /// proper key nobody is handed back.
    #[test]
    fn joint_equals_sequential_where_rules_read_output_tables(
        keyed in prop::sample::select(vec![false, true]),
        picks in prop::collection::vec(0usize..5, 12),
        cands in prop::collection::vec(prop_oneof![mutant(), structural_mutant()], 1..6),
    ) {
        let fx = output_fixture(keyed, &picks);
        let (programs, deltas) = mutants(&fx, &cands.iter().collect::<Vec<_>>())?;
        let mut setup = fx.setup(false);
        setup.codec.packet_out_table = Some("PacketOut".into());
        let handed_back = joint_vs_sequential(&setup, &fx.base, &programs, &deltas, &[])?;
        prop_assert!(keyed || handed_back == 0, "handed back without a key: {:b}", handed_back);
    }
}

/// The quiet family on Fig. 1, under the five-tuple codec: `r1`–`r4` join
/// the packet-in with `Allow` on the destination port, and select on the
/// switch and the source address. `Allow` is seeded for port 80, so until
/// `r0` files the source port of a packet from address 4 — 53 among them —
/// no rule completes a match on a DNS punt: those steps change nothing. The
/// workload varies the source address, which only selections read, and the
/// destination address and source port, which only heads read — heads a
/// failing join never reaches. It opens with two DNS packets that differ in
/// those two alone: the second is a punt key-equal to the first, whatever
/// the candidates edit.
fn quiet_fixture(picks: &[usize], flows: &[(i64, i64, bool)]) -> (Fixture, BacktestSetup) {
    let consts = vec![1, 2, 3, 4, 5];
    let c = |i: usize| consts[picks[i] % consts.len()];
    let mut src = String::from(
        "materialize(PacketIn, event, 6, keys()).\n\
         materialize(FlowTable, infinity, 5, keys(0,1,2,3,4)).\n\
         materialize(Allow, infinity, 2, keys(0)).\n\
         r0 Allow(@C,Spt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Sip == 4, Prt := 1.\n",
    );
    let ops = [("==", "<"), ("!=", ">"), ("==", "!="), ("<", "==")];
    for (i, (id, (swi_op, sip_op))) in RULES.iter().zip(ops).enumerate() {
        src.push_str(&format!(
            "{id} FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,Sip,Dip,Spt,Dpt,Ipt), Allow(@C,Dpt,Prt), \
             Swi {swi_op} {}, Sip {sip_op} {}.\n",
            c(2 * i),
            c(2 * i + 1),
        ));
    }
    let fx = Fixture { base: parse_program("prop-mqo-quiet", &src).unwrap(), consts, ..fig1_fixture() };
    let opening = [(1, 0, false), (1, 1, false)];
    let packets = opening.iter().chain(flows).enumerate().map(|(i, &(sip, spt, http))| {
        let mut p = Packet::http(i as u64, sip, if spt % 2 == 0 { fig1_hosts::H1 } else { fig1_hosts::H2 });
        p.src_port = [53, 80, 7000, 7001][spt as usize];
        p.dst_port = if http { 80 } else { 53 };
        (fig1_hosts::INTERNET, p)
    });
    let mut setup = fx.setup(false);
    setup.codec = TupleCodec::five_tuple();
    setup.seeds = vec![Tuple::new("Allow", setup.codec.controller_loc.clone(), vec![Value::Int(80), Value::Int(1)])];
    setup.workload = Arc::new(packets.collect());
    (fx, setup)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Candidates that edit the selections, delete rules or add copies:
    /// joint equals sequential on the whole `SimStats`, and a punt
    /// key-equal to a step that changed nothing was not stepped.
    #[test]
    fn joint_equals_sequential_where_quiet_punts_are_skipped(
        picks in prop::collection::vec(0usize..5, 8),
        flows in prop::collection::vec((0i64..6, 0i64..4, prop::sample::select(vec![false, true])), 4..20),
        cands in prop::collection::vec(prop_oneof![mutant(), structural_mutant()], 1..6),
    ) {
        let (fx, setup) = quiet_fixture(&picks, &flows);
        let (programs, deltas) = mutants(&fx, &cands.iter().collect::<Vec<_>>())?;
        assert_joint_equals_sequential(&setup, &fx.base, &programs, &deltas, &[])?;
        let work = mqo_replay_deltas(&setup, &fx.base, &deltas, &[], &[]).work;
        prop_assert!(work.skipped > 0, "no punt skipped: {:?}", work);
    }
}
