//! The joint backtest pays per distinct behaviour, not per candidate, by
//! count: on the candidates the debugger itself generates, a flight costs
//! at most one flow-table lookup per hop on average (the candidates that
//! hold the same table are one variant, also after they diverged and
//! installed the same entries a packet apart), counters are kept for a
//! few tag classes per candidate, every punt is a step or inside an
//! injection answered from the memo, a repeated packet is forwarded once
//! per standing state, and the variants left at the end are the distinct
//! tables of the candidates' own networks. Counts repeat exactly, so no timer is
//! involved — as `tests/alloc_budget.rs` guards the explorer's allocations.
//! Each candidate's own network and `SimStats` are the reference's.

mod common;

use common::{observation_run, reference};
use sdn_meta_repair::backtest::mqo::{mqo_replay_deltas, ExtraFlows, JointReplay};
use sdn_meta_repair::backtest::replay::BacktestSetup;
use sdn_meta_repair::core::debugger::Debugger;
use sdn_meta_repair::core::repair::Candidate;
use sdn_meta_repair::core::scenarios::Scenario;
use sdn_meta_repair::ndlog::{ProgramOutline, RuleDelta, Tuple};
use sdn_meta_repair::sdn::controller::NdlogController;
use sdn_meta_repair::sdn::Simulation;

/// The debugger's candidates for `s`, and each read as `Debugger::backtest`
/// reads it (`Repair::replay_input`) for the joint replay: rule deltas,
/// manual entries, seeds of their own where a repair changes them.
struct Candidates {
    setup: BacktestSetup,
    list: Vec<Candidate>,
    deltas: Vec<RuleDelta>,
    extra: Vec<ExtraFlows>,
    seeds: Vec<Option<Vec<Tuple>>>,
}

impl Candidates {
    fn of(s: &Scenario) -> Candidates {
        let dbg = Debugger::for_scenario(s);
        let setup = dbg.setup();
        let outline = ProgramOutline::new(&s.program).expect("the scenario's program is valid");
        let list: Vec<Candidate> = dbg.diagnose_and_repair().expect("it runs").outcomes.into_iter().map(|o| o.candidate).collect();
        let (mut deltas, mut extra, mut seeds) = (Vec::new(), Vec::new(), Vec::new());
        for c in &list {
            let input = c.repair.replay_input(&s.program, &outline, &setup);
            deltas.push(input.delta.expect("candidate applies"));
            extra.push(input.extra_flows);
            seeds.push(input.seeds);
        }
        Candidates { setup, list, deltas, extra, seeds }
    }

    /// The joint replay of the candidates `which`.
    fn replay(&self, s: &Scenario, which: std::ops::Range<usize>) -> JointReplay {
        let w = which;
        mqo_replay_deltas(&self.setup, &s.program, &self.deltas[w.clone()], &self.extra[w.clone()], &self.seeds[w])
    }

    /// Each candidate's reference run: its counters and its own network.
    fn reference(&self, s: &Scenario) -> Vec<reference::Run> {
        reference::runs(&s.program, &self.setup, &self.list).into_iter().map(|r| r.expect("every candidate runs")).collect()
    }
}

/// Holds the joint replay of `s`'s candidates to the distinct behaviours
/// among them, and returns it.
fn assert_work_follows_behaviours(s: &Scenario) -> JointReplay {
    let c = Candidates::of(s);
    let n = c.deltas.len();
    let joint = c.replay(s, 0..n);
    assert_eq!(joint.diverged, 0, "{}: every candidate is answered by the joint replay", s.id);
    let work = joint.work;
    let injected = joint.outcomes[0].stats.injected;
    println!(
        "{}: {n} candidates, {work:?}, {:?}; {} of {injected} injections replayed",
        s.id, joint.footprint, work.replayed
    );
    assert_eq!(c.replay(s, 0..n).work, work, "{}: the counts repeat", s.id);

    // One lookup per distinct table a flight meets: with a variant per
    // fork this read 19 820 lookups for 6 051 flight-hops on Q1.
    assert!(work.lookups <= work.flight_hops, "{}: {work:?}", s.id);
    // A handful of tag classes, whatever the number of candidates.
    assert!(work.classes <= 4 * n as u64, "{}: {work:?} for {n} candidates", s.id);

    // Every punt is a step, a skipped quiet step, or inside an injection
    // answered from the memo. A punt serves one candidate or several, so
    // their number lies between the most any candidate sends and what all
    // of them send — and alone, a candidate's punts are its packet-ins.
    let punts = work.steps + work.skipped + work.replayed_punts;
    let packet_ins: Vec<u64> = joint.outcomes.iter().map(|o| o.stats.packet_ins).collect();
    let most = packet_ins.iter().copied().max().unwrap_or(0);
    assert!(most <= punts && punts <= packet_ins.iter().sum(), "{}: {punts} punts for {packet_ins:?}", s.id);
    for (i, own) in packet_ins.iter().enumerate() {
        let alone = c.replay(s, i..i + 1);
        assert_eq!(alone.outcomes[0].stats, joint.outcomes[i].stats, "{}: candidate {i} alone", s.id);
        assert_eq!(alone.work.steps + alone.work.skipped + alone.work.replayed_punts, *own, "{}: candidate {i} alone", s.id);
        assert_eq!(alone.work.classes, 1);
    }

    // The variants left are the distinct tables, in entry order, of the
    // candidates' own networks — no table is held twice.
    assert_eq!(joint.footprint, reference::footprint(c.reference(s)), "{}", s.id);
    joint
}

#[test]
fn q1_pays_per_distinct_behaviour() {
    let joint = assert_work_follows_behaviours(&Scenario::q1_copy_paste());
    // A repeated packet is forwarded once while the state stands: 1 914 of
    // the 1 936 injections are answered from the memo, and 58 flights hop
    // where every injection forwarded made 6 051.
    let (work, injected) = (joint.work, joint.outcomes[0].stats.injected);
    assert!(work.replayed * 100 >= injected * 95, "{} of {injected} replayed", work.replayed);
    assert!(work.flight_hops <= 200, "{work:?}");
}

#[test]
fn q1_on_ten_thousand_switches_pays_per_distinct_behaviour() {
    let work = assert_work_follows_behaviours(&Scenario::q1_on_fabric(10_000)).work;
    // The 1 024 background punts pass the prefilter of the `r1` copies
    // that widen `Swi == 1` and die at the `WebLoadBalancer` join: one
    // key, one quiet step. Each was a step of its own before (1 040 steps).
    assert!(work.steps <= 17, "{work:?}");
    assert!(work.skipped >= 1_023, "{work:?}");
}

/// The curated differential: on every curated run, each candidate the
/// joint replay answers for itself — Q5 hands one back — has the whole
/// `SimStats` of its own reference run, injections answered from the memo
/// and all.
#[test]
fn every_candidate_the_joint_replay_keeps_has_the_reference_stats() {
    for s in &reference::curated() {
        let c = Candidates::of(s);
        let n = c.deltas.len();
        let joint = c.replay(s, 0..n);
        let mut kept = 0;
        for (i, own) in c.reference(s).iter().enumerate().filter(|(i, _)| joint.diverged >> i & 1 == 0) {
            assert_eq!(joint.outcomes[i].stats, own.stats, "{}: candidate {i}", s.id);
            kept += 1;
        }
        let (replayed, injected) = (joint.work.replayed, joint.outcomes[0].stats.injected);
        println!("{}: {kept} of {n} candidates kept, {replayed} of {injected} injections replayed", s.id);
        assert!(kept + 1 >= n, "{}: {kept} of {n} kept", s.id);
    }
}

// Count pins of the product's own observation run, not differentials.
#[test]
fn the_fabric_observation_run_steps_only_for_punts_a_rule_hears() {
    // 1 024 of the fabric's 1 045 punts are background flows no rule of Q1
    // matches. Each is a distinct event: before an event no trigger hears
    // was answered without a drain, every one was a step (1 032 of them).
    let s = Scenario::q1_on_fabric(10_000);
    let sim = observation_run(&s);
    let engine = sim.controller().engine();
    let (steps, hits, unheard) = (engine.steps(), engine.memo_hits(), engine.unheard());
    println!("fabric observation run: {steps} steps, {hits} memo hits, {unheard} unheard");
    assert_eq!(steps + hits + unheard, sim.stats.packet_ins, "every punt is a step, a hit or unheard");
    assert!(steps <= 8, "{steps} steps");
    assert!(unheard >= 1_024, "{unheard} punts no rule hears");
    // Q1's repeats are answered from the simulator's memo; the background
    // flows are distinct, and each punts.
    let answered = observation_run_answers(&sim);
    assert!(answered >= 1_900, "{answered} answered");
}

/// What the observation run answered from the simulator's memo, held to
/// the identity forwarded + answered = injected.
fn observation_run_answers(sim: &Simulation<NdlogController>) -> u64 {
    let (forwarded, answered, injected) = (sim.forwarded(), sim.answered(), sim.stats.injected);
    println!("observation run: {forwarded} forwarded, {answered} answered of {injected} injections");
    assert_eq!(forwarded + answered, injected, "every injection is forwarded or answered");
    answered
}

#[test]
fn the_q1_observation_run_forwards_a_repeat_only_when_it_punts_or_installs() {
    // Nearly all of Q1's 1 936 injections are repeats no controller sees:
    // forwarded, every one of them made 6 051 hops.
    let s = Scenario::q1_copy_paste();
    let sim = observation_run(&s);
    let answered = observation_run_answers(&sim);
    assert_eq!(sim.stats.injected, 1_936);
    assert!(sim.forwarded() <= 40, "{} of 1 936 forwarded, {answered} answered", sim.forwarded());
}
