//! Property test for §4.4's correctness claim: the tagged joint backtest
//! computes, for every candidate, exactly the results of a sequential
//! replay of that candidate — on randomly mutated programs.

use mpr_backtest::mqo::mqo_replay;
use mpr_backtest::replay::{replay, BacktestSetup};
use mpr_ndlog::{parse_program, Program};
use mpr_sdn::controller::TupleCodec;
use mpr_sdn::packet::Packet;
use mpr_sdn::sim::SimConfig;
use mpr_sdn::topology::{fig1, fig1_hosts};
use proptest::prelude::*;

fn base_program() -> Program {
    parse_program(
        "prop-mqo",
        r"
        materialize(PacketIn, event, 2, keys()).
        materialize(FlowTable, infinity, 2, keys(0,1)).
        r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.
        r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
        r3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
        r4 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr == 53, Prt := 1.
        ",
    )
    .unwrap()
}

/// A random single-literal mutation of the base program.
fn mutant() -> impl Strategy<Value = Program> {
    (
        prop::sample::select(vec!["r1", "r2", "r3", "r4"]),
        0usize..2,
        prop_oneof![
            (1i64..6).prop_map(Some),             // new constant
            Just(None),                            // operator flip instead
        ],
    )
        .prop_map(|(rule, sel, change)| {
            let mut p = base_program();
            let r = p.rule_mut(rule).unwrap();
            match change {
                Some(v) => r.sels[sel].rhs = mpr_ndlog::Expr::int(v),
                None => r.sels[sel].op = r.sels[sel].op.negate(),
            }
            p
        })
}

/// A structural mutation: a rule deleted, or a re-pointed copy of one
/// added (the explorer's donor repair) — the shapes where a candidate's
/// rule list no longer lines up with the base program's.
fn structural_mutant() -> impl Strategy<Value = Program> {
    (prop::sample::select(vec!["r1", "r2", "r3", "r4"]), prop::option::of(1i64..4)).prop_map(
        |(rule, copy_to)| {
            let mut p = base_program();
            match copy_to {
                Some(swi) => {
                    let mut copy = p.rule(rule).unwrap().clone();
                    copy.id = format!("{rule}_copy");
                    copy.sels[0].rhs = mpr_ndlog::Expr::int(swi);
                    p.rules.push(copy);
                }
                None => p.rules.retain(|r| r.id != rule),
            }
            p
        },
    )
}

fn setup() -> BacktestSetup {
    let workload = (0..24)
        .map(|i| {
            let dst = if i % 3 == 0 { fig1_hosts::DNS } else { fig1_hosts::H1 };
            let p = if i % 3 == 0 {
                Packet::dns(i, 100, dst)
            } else {
                let mut p = Packet::http(i, 100, dst);
                p.src_port = 7000; // one flow
                p
            };
            (fig1_hosts::INTERNET, p)
        })
        .collect::<Vec<_>>();
    BacktestSetup {
        topology: fig1().into(),
        codec: TupleCodec::fig2(),
        seeds: vec![],
        workload: std::sync::Arc::new(workload),
        config: SimConfig::default(),
        proactive_routes: false,
        engine: mpr_runtime::Options::default(),
    }
}

/// The joint backtest of `cands` against one sequential replay each.
fn assert_joint_equals_sequential(cands: &[Program]) -> Result<(), TestCaseError> {
    let setup = setup();
    let base = base_program();
    let joint = mqo_replay(&setup, &base, cands, &[]);
    prop_assert_eq!(joint.len(), cands.len());
    for (i, cand) in cands.iter().enumerate() {
        let solo = replay(&setup, cand).unwrap();
        prop_assert_eq!(
            &joint[i].delivered,
            &solo.delivered,
            "candidate {} delivered sets diverge",
            i
        );
        prop_assert_eq!(
            joint[i].stats.packet_ins,
            solo.stats.packet_ins,
            "candidate {} controller load diverges",
            i
        );
        prop_assert_eq!(
            joint[i].stats.dropped_policy,
            solo.stats.dropped_policy,
            "candidate {} policy drops diverge",
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn joint_equals_sequential(cands in prop::collection::vec(mutant(), 1..6)) {
        assert_joint_equals_sequential(&cands)?;
    }

    #[test]
    fn joint_equals_sequential_when_rules_are_added_and_deleted(
        cands in prop::collection::vec(prop_oneof![mutant(), structural_mutant()], 1..6),
    ) {
        assert_joint_equals_sequential(&cands)?;
    }
}
