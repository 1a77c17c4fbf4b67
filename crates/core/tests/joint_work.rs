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

use mpr_backtest::mqo::{mqo_replay_deltas, ExtraFlows, JointReplay};
use mpr_backtest::replay::{drive, replay_candidates, BacktestSetup, CandidateRun};
use mpr_core::debugger::repair_scenario;
use mpr_core::scenarios::Scenario;
use mpr_ndlog::{ProgramOutline, RuleDelta, Tuple};
use mpr_sdn::flowtable::FlowEntry;
use std::sync::Arc;

/// The debugger's candidates for `s`, read as `Debugger::backtest` reads
/// them (`Repair::replay_input`): rule deltas, manual entries, seeds of
/// their own where a repair changes them.
struct Candidates {
    setup: BacktestSetup,
    deltas: Vec<RuleDelta>,
    extra: Vec<ExtraFlows>,
    seeds: Vec<Option<Vec<Tuple>>>,
}

/// The network and workload `s` is observed and backtested on, as the
/// debugger sets them up.
fn setup_of(s: &Scenario) -> BacktestSetup {
    BacktestSetup {
        topology: s.topology.clone(),
        codec: s.codec.clone(),
        seeds: s.seeds.clone(),
        workload: Arc::new(s.workload.clone()),
        config: s.sim.clone(),
        proactive_routes: false,
        engine: mpr_runtime::Options::default(),
    }
}

impl Candidates {
    fn of(s: &Scenario) -> Candidates {
        let setup = setup_of(s);
        let outline = ProgramOutline::new(&s.program).expect("the scenario's program is valid");
        let (mut deltas, mut extra, mut seeds) = (Vec::new(), Vec::new(), Vec::new());
        for o in &repair_scenario(s).outcomes {
            let input = o.candidate.repair.replay_input(&s.program, &outline, &setup);
            deltas.push(input.delta.expect("candidate applies"));
            extra.push(input.extra_flows);
            seeds.push(input.seeds);
        }
        Candidates { setup, deltas, extra, seeds }
    }

    /// The joint replay of the candidates `which`.
    fn replay(&self, s: &Scenario, which: std::ops::Range<usize>) -> JointReplay {
        let w = which;
        mqo_replay_deltas(&self.setup, &s.program, &self.deltas[w.clone()], &self.extra[w.clone()], &self.seeds[w])
    }

    /// Candidate `i`'s own network after a sequential replay: per switch
    /// with a table, its entries in match order.
    fn tables_of(&self, s: &Scenario, i: usize) -> Vec<(i64, Vec<FlowEntry>)> {
        let seeds = self.seeds[i].clone().unwrap_or_else(|| s.seeds.clone());
        let setup = BacktestSetup { seeds, ..self.setup.clone() };
        let program = Arc::new(self.deltas[i].overlay(&s.program));
        let sim = drive(&setup, program, false, &self.extra[i]).expect("candidate runs");
        let table = |sw: &i64| Some((*sw, sim.tables.get(sw)?.iter().cloned().collect()));
        s.topology.switches.iter().filter_map(table).collect()
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
    let mut distinct: Vec<(i64, Vec<FlowEntry>)> = Vec::new();
    for i in 0..n {
        for table in c.tables_of(s, i) {
            if !distinct.contains(&table) {
                distinct.push(table);
            }
        }
    }
    assert_eq!(joint.footprint.variants, distinct.len(), "{}", s.id);
    let mut switches: Vec<i64> = distinct.iter().map(|(sw, _)| *sw).collect();
    switches.sort_unstable();
    switches.dedup();
    assert_eq!(joint.footprint.switches, switches.len(), "{}", s.id);
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

/// The curated differential: on every scenario, each candidate the joint
/// replay answers for itself — Q5 hands one back — has the whole
/// `SimStats` of its own sequential replay, injections answered from the
/// memo and all.
#[test]
fn every_candidate_the_joint_replay_keeps_has_the_reference_stats() {
    let q1 = Scenario::q1_copy_paste();
    let mut scenarios = Scenario::all();
    scenarios.push(Scenario::fig7_harmful_entry());
    scenarios.push(q1.trema_variant());
    scenarios.extend(q1.pyretic_variant());
    scenarios.push(Scenario::q1_padded(100));
    scenarios.push(Scenario::q1_on_fabric(10_000));
    for s in &scenarios {
        let c = Candidates::of(s);
        let n = c.deltas.len();
        let joint = c.replay(s, 0..n);
        let runs: Vec<CandidateRun> = (0..n)
            .map(|i| CandidateRun {
                program: Some(c.deltas[i].overlay(&s.program)),
                seeds: c.seeds[i].clone().unwrap_or_else(|| s.seeds.clone()),
                extra_flows: c.extra[i].clone(),
            })
            .collect();
        let reference = replay_candidates(&c.setup, &runs);
        let mut kept = 0;
        for (i, own) in reference.iter().enumerate().filter(|(i, _)| joint.diverged >> i & 1 == 0) {
            let own = own.as_ref().unwrap_or_else(|| panic!("{}: candidate {i} replays", s.id));
            assert_eq!(joint.outcomes[i].stats, own.stats, "{}: candidate {i}", s.id);
            kept += 1;
        }
        let (replayed, injected) = (joint.work.replayed, joint.outcomes[0].stats.injected);
        println!("{}: {kept} of {n} candidates kept, {replayed} of {injected} injections replayed", s.id);
        assert!(kept + 1 >= n, "{}: {kept} of {n} kept", s.id);
    }
}

#[test]
fn the_fabric_observation_run_steps_only_for_punts_a_rule_hears() {
    // 1 024 of the fabric's 1 045 punts are background flows no rule of Q1
    // matches. Each is a distinct event: before an event no trigger hears
    // was answered without a drain, every one was a step (1 032 of them).
    let s = Scenario::q1_on_fabric(10_000);
    let sim = drive(&setup_of(&s), Arc::clone(&s.program), true, &[]).expect("the fabric runs");
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
fn observation_run_answers(sim: &mpr_sdn::Simulation<mpr_sdn::controller::NdlogController>) -> u64 {
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
    let sim = drive(&setup_of(&s), Arc::clone(&s.program), true, &[]).expect("Q1 runs");
    let answered = observation_run_answers(&sim);
    assert_eq!(sim.stats.injected, 1_936);
    assert!(sim.forwarded() <= 40, "{} of 1 936 forwarded, {answered} answered", sim.forwarded());
}
