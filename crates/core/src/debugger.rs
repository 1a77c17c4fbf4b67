//! The debugger: the operator-facing loop of §2 — run the buggy network,
//! take a symptom query, generate candidate repairs from meta provenance,
//! backtest them, and return a ranked list.
//!
//! Phase timings mirror the Fig. 9a breakdown: **history lookups**
//! (scanning the log for triggers and state), **constraint solving**
//! (inside the explorer), **patch generation** (the rest of the explorer),
//! and **replay** (the buggy baseline plus candidate backtests).

use crate::explore::{generate_existing, generate_missing_against, World};
use crate::repair::{Candidate, Repair, ReplayInput};
use crate::scenarios::{Scenario, Symptom};
use mpr_backtest::ks::{ks_two_sample, KsResult};
use mpr_backtest::mqo::{mqo_replay_indexed, TagSet};
use mpr_backtest::replay::{drive, replay_candidates, BacktestSetup, CandidateRun, ReplayOutcome};
use mpr_ndlog::patch::Edit;
use mpr_ndlog::ProgramOutline;
use mpr_runtime::{ExecLog, Options as EngineOptions, TriggerIndex};
use mpr_trace::workload::Injection;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Fig. 9a phase breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Scanning the history/log for triggers and controller state.
    pub history_lookups: Duration,
    /// Constraint solving inside the explorer.
    pub constraint_solving: Duration,
    /// Candidate construction (explorer minus solving).
    pub patch_generation: Duration,
    /// Baseline + candidate replay.
    pub replay: Duration,
}

impl PhaseTimings {
    /// Total turnaround.
    pub fn total(&self) -> Duration {
        self.history_lookups + self.constraint_solving + self.patch_generation + self.replay
    }
}

/// One backtested candidate.
#[derive(Debug, Clone)]
pub struct CandidateOutcome {
    /// The candidate.
    pub candidate: Candidate,
    /// Did it fix the problem at hand?
    pub effective: bool,
    /// KS test against the original distribution.
    pub ks: KsResult,
    /// Effective and statistically harmless.
    pub accepted: bool,
}

/// The debugger's answer.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Scenario id.
    pub scenario: String,
    /// The operator's query.
    pub query: String,
    /// All generated candidates with their backtest outcomes, cheapest
    /// first.
    pub outcomes: Vec<CandidateOutcome>,
    /// Indices of accepted candidates (into `outcomes`), in presentation
    /// order (complexity, then side-effect size).
    pub accepted: Vec<usize>,
    /// Phase breakdown.
    pub timings: PhaseTimings,
    /// The buggy network's distribution (the KS baseline).
    pub baseline: ReplayOutcome,
    /// Explorer counters.
    pub trees: u64,
    /// Explorer counters.
    pub pools_solved: u64,
    /// The joint replay (§4.4) answered for at least one candidate itself.
    /// False where it handed back every candidate — under a fault plan, or
    /// with none to backtest.
    pub backtested_jointly: bool,
    /// How many candidates the joint replay handed back — they met
    /// something it does not mirror — and one fallback replay each
    /// answered for. Under a fault plan that is every candidate whose
    /// patch applies.
    pub handed_back: usize,
}

impl RepairReport {
    /// Number of candidates generated (the first number in Table 1).
    pub fn generated(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of accepted candidates (the second number in Table 1).
    pub fn accepted_count(&self) -> usize {
        self.accepted.len()
    }

    /// Render a Table 2 style listing.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (i, o) in self.outcomes.iter().enumerate() {
            let letter = (b'A' + (i as u8 % 26)) as char;
            out.push_str(&format!(
                "{letter} {:60} ({}) KS={:.5}\n",
                o.candidate.description,
                if o.accepted { "accepted" } else if o.effective { "rejected: side effects" } else { "rejected: ineffective" },
                o.ks.d
            ));
        }
        out
    }
}

/// One recorded run of the buggy network: what [`Debugger::record`] keeps
/// of it and all [`Debugger::repair`] reads.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The controller's execution log, as the run wrote it.
    pub log: ExecLog,
    /// The buggy network's distribution (the KS baseline).
    pub baseline: ReplayOutcome,
    /// How long the run took (the observation share of
    /// [`PhaseTimings::replay`]).
    pub run_time: Duration,
}

/// The debugger.
pub struct Debugger {
    /// The scenario, its `workload` moved out into the field below.
    scenario: Scenario,
    /// The scenario's workload: one copy, which every [`BacktestSetup`]
    /// this debugger makes shares.
    workload: Arc<Vec<Injection>>,
    /// Engine options for the observation run and every sequential
    /// backtest replay (strategy, durability, …). The kill-and-restart
    /// harness points this at a WAL so crashes mid-loop are recoverable.
    pub engine_options: EngineOptions,
    /// The program's outline: what the first observation run's engine
    /// checked it against, read by the explorer and every backtest.
    outline: OnceLock<Result<Arc<ProgramOutline>, String>>,
    /// The program's trigger index: what the first observation run's
    /// engine dispatches through, read by every joint replay.
    index: OnceLock<Arc<TriggerIndex>>,
}

impl Debugger {
    /// Build a debugger for a scenario.
    pub fn for_scenario(scenario: &Scenario) -> Debugger {
        let mut scenario = scenario.clone();
        Debugger {
            workload: Arc::new(std::mem::take(&mut scenario.workload)),
            scenario,
            engine_options: EngineOptions::default(),
            outline: OnceLock::new(),
            index: OnceLock::new(),
        }
    }

    /// The program's outline: the observation run's, or made here if
    /// nothing has run yet.
    fn outline(&self) -> Result<&ProgramOutline, String> {
        let outline = self.outline.get_or_init(|| ProgramOutline::new(&self.scenario.program).map(Arc::new));
        outline.as_deref().map_err(String::clone)
    }

    /// The program's trigger index: the observation run's, or made here if
    /// nothing has run yet or its engine keeps none (a pipelined one).
    fn trigger_index(&self) -> &TriggerIndex {
        self.index.get_or_init(|| Arc::new(TriggerIndex::new(&self.scenario.program)))
    }

    /// The network, workload, seeds and engine options every run of this
    /// debugger replays on.
    pub fn setup(&self) -> BacktestSetup {
        BacktestSetup {
            topology: self.scenario.topology.clone(),
            codec: self.scenario.codec.clone(),
            seeds: self.scenario.seeds.clone(),
            workload: Arc::clone(&self.workload),
            config: self.scenario.sim.clone(),
            proactive_routes: false,
            engine: self.engine_options.clone(),
        }
    }

    /// Run the buggy program over the workload once, recording, and keep
    /// what the run leaves: the controller's log and the simulator's
    /// counters. The network and the controller are gone when this returns.
    pub fn record(&self) -> Result<Recording, String> {
        let t_run = Instant::now();
        let mut sim = drive(&self.setup(), Arc::clone(&self.scenario.program), true, &[])?;
        let engine = sim.controller().engine();
        self.outline.get_or_init(|| Ok(Arc::clone(engine.outline())));
        if let Some(index) = engine.trigger_index() {
            self.index.get_or_init(|| Arc::clone(index));
        }
        let log = sim.controller_mut().take_log();
        Ok(Recording { log, baseline: ReplayOutcome::of(sim.stats), run_time: t_run.elapsed() })
    }

    /// [`Self::record`], then [`World::from_history`] over the log: the
    /// explorer's world, the baseline distribution, and how long the run
    /// and the reading of its log took.
    pub fn observe(&self) -> Result<(World, ReplayOutcome, Duration, Duration), String> {
        let Recording { log, baseline, run_time } = self.record()?;
        let t_hist = Instant::now();
        let world = World::from_history(&self.scenario, &log);
        Ok((world, baseline, run_time, t_hist.elapsed()))
    }

    /// The full §2 loop: record, then diagnose, generate, backtest, rank.
    ///
    /// Fails (with a description, never a panic) only when the scenario
    /// itself cannot run — a program that does not compile, a codec that
    /// cannot seed the controller. Degraded-but-running conditions (a
    /// candidate whose replay dies) surface inside the report instead.
    pub fn diagnose_and_repair(&self) -> Result<RepairReport, String> {
        let recording = self.record()?;
        self.repair(&recording)
    }

    /// Diagnose and repair from a recorded run alone: the symptom is
    /// explained out of `recording.log` as it was written, candidates are
    /// judged against `recording.baseline`, and nothing runs the unpatched
    /// program again.
    pub fn repair(&self, recording: &Recording) -> Result<RepairReport, String> {
        // History lookups: distinct triggers, live state and the symptom's
        // derivations, read off the execution log.
        let t_hist = Instant::now();
        let world = World::from_history(&self.scenario, &recording.log);
        let history_time = t_hist.elapsed();
        let baseline = &recording.baseline;

        // --- candidate generation -------------------------------------
        let t_gen = Instant::now();
        let (mut candidates, stats) = match &self.scenario.symptom {
            Symptom::Missing(pattern) => generate_missing_against(&world, pattern, Some(self.outline()?)),
            Symptom::Existing(tuple) => generate_existing(&world, tuple),
        };
        if !self.scenario.op_repairs {
            // Pyretic's `match` is equality-only (§5.8): operator
            // mutations are not expressible repairs in this language.
            let op_edit = |e: &Edit| matches!(e, Edit::SetSelectionOp { .. });
            candidates.retain(|c| !matches!(&c.repair, Repair::Patch(p) if p.edits.iter().any(op_edit)));
        }
        let gen_total = t_gen.elapsed();
        let solving = Duration::from_nanos(stats.solver_ns.min(u64::MAX as u128) as u64);
        let patch_generation = gen_total.saturating_sub(solving);

        // --- backtesting ------------------------------------------------
        let t_back = Instant::now();
        let (outcomes, handed_back, backtested_jointly) = self.backtest(&candidates)?;
        let replay_time = recording.run_time + t_back.elapsed();
        let (outcomes, accepted) = self.judge(baseline, candidates, outcomes);

        Ok(RepairReport {
            scenario: self.scenario.id.clone(),
            query: self.scenario.query.clone(),
            outcomes,
            accepted,
            timings: PhaseTimings {
                history_lookups: history_time,
                constraint_solving: solving,
                patch_generation,
                replay: replay_time,
            },
            baseline: baseline.clone(),
            trees: stats.trees,
            pools_solved: stats.pools_solved,
            backtested_jointly,
            handed_back,
        })
    }

    /// The verdicts on backtested candidates (`None`: the patch does not
    /// apply, or the program does not run — ineffective). A candidate is
    /// accepted when it is effective, KS-indistinguishable from `baseline`
    /// at α = 0.05, and sends no more than 3 × + 10 the baseline's
    /// packet-ins. Returns every candidate's outcome, and the accepted ones
    /// in presentation order.
    pub fn judge(
        &self,
        baseline: &ReplayOutcome,
        candidates: Vec<Candidate>,
        outcomes: Vec<Option<ReplayOutcome>>,
    ) -> (Vec<CandidateOutcome>, Vec<usize>) {
        let outcomes: Vec<CandidateOutcome> = (candidates.into_iter().zip(outcomes))
            .map(|(candidate, out)| {
                let out = out.as_ref();
                let effective = out.is_some_and(|o| self.scenario.effect.holds(&o.stats));
                let delivered = out.map_or(&baseline.delivered, |o| &o.delivered);
                let ks = ks_two_sample(&baseline.delivered, delivered, 0.05);
                // §4.3: operators can add metrics beyond the traffic
                // distribution; Table 6c rejects Q4 candidates for
                // "significant increases of controller traffic".
                let quiet = out.is_some_and(|o| o.stats.packet_ins <= baseline.stats.packet_ins * 3 + 10);
                let accepted = effective && ks.accepted() && quiet;
                CandidateOutcome { candidate, effective, ks, accepted }
            })
            .collect();
        // Presentation order: complexity (cost) first, then side-effect
        // size (§4.3: "the metrics can be used to rank the repairs").
        let mut accepted: Vec<usize> = (0..outcomes.len()).filter(|&i| outcomes[i].accepted).collect();
        accepted.sort_by(|&a, &b| {
            let (a, b) = (&outcomes[a], &outcomes[b]);
            a.candidate.cost.cmp(&b.candidate.cost).then(a.ks.d.partial_cmp(&b.ks.d).unwrap_or(std::cmp::Ordering::Equal))
        });
        (outcomes, accepted)
    }

    /// Backtest every candidate: its outcome (`None` where its patch does
    /// not apply or its program does not run), how many candidates the
    /// joint replay handed back, and whether it answered for any itself.
    ///
    /// One joint replay per tag set's worth of candidates, each read as
    /// what it changes ([`Repair::replay_input`]); the joint replay names
    /// whom it does not answer for, and the per-candidate fallback
    /// replays just those. A candidate whose patch
    /// does not apply rides along as the base program, and its outcome is
    /// dropped.
    fn backtest(&self, candidates: &[Candidate]) -> Result<(Vec<Option<ReplayOutcome>>, usize, bool), String> {
        let (setup, base, outline) = (self.setup(), &self.scenario.program, self.outline()?);
        let mut outs: Vec<Option<ReplayOutcome>> = Vec::with_capacity(candidates.len());
        let (mut handed_back, mut jointly) = (0, false);
        for slice in candidates.chunks(TagSet::BITS as usize) {
            let (mut deltas, mut applies, mut extra, mut seeds) = (vec![], vec![], vec![], vec![]);
            for c in slice {
                let ReplayInput { delta, extra_flows, seeds: own } = c.repair.replay_input(base, outline, &setup);
                applies.push(delta.is_ok());
                deltas.push(delta.unwrap_or_default());
                extra.push(extra_flows);
                seeds.push(own);
            }
            let joint = mqo_replay_indexed(&setup, base, Some(self.trigger_index()), &deltas, &extra, &seeds);
            let named: Vec<usize> = (0..slice.len()).filter(|&i| applies[i] && joint.diverged >> i & 1 == 1).collect();
            let at = outs.len();
            outs.extend((joint.outcomes.into_iter().zip(&applies)).map(|(out, &a)| a.then_some(out)));
            for (&i, own) in named.iter().zip(self.fallback(&setup, outline, named.iter().map(|&i| &slice[i]))) {
                outs[at + i] = own;
            }
            handed_back += named.len();
            jointly |= named.len() < applies.iter().filter(|&&a| a).count();
        }
        Ok((outs, handed_back, jointly))
    }

    /// The per-candidate fallback: each candidate read as the joint
    /// replay reads it ([`Repair::replay_input`]) and replayed on its own
    /// ([`replay_candidates`]); `None` where its patch does not apply or its
    /// program does not run. The backtest runs it for the candidates the
    /// joint replay hands back.
    fn fallback<'c>(
        &self,
        setup: &BacktestSetup,
        outline: &ProgramOutline,
        candidates: impl IntoIterator<Item = &'c Candidate>,
    ) -> Vec<Option<ReplayOutcome>> {
        let base = &self.scenario.program;
        let runs: Vec<CandidateRun> = (candidates.into_iter())
            .map(|c| {
                let input = c.repair.replay_input(base, outline, setup);
                let seeds = input.seeds.unwrap_or_else(|| setup.seeds.clone());
                CandidateRun { program: input.delta.ok().map(|d| d.overlay(base)), seeds, extra_flows: input.extra_flows }
            })
            .collect();
        replay_candidates(setup, &runs)
    }
}

/// Convenience wrapper: scenario in, report out. Fallible variant for
/// callers (like the chaos harness) that must survive broken scenarios.
pub fn try_repair_scenario(scenario: &Scenario) -> Result<RepairReport, String> {
    Debugger::for_scenario(scenario).diagnose_and_repair()
}

/// Convenience wrapper: scenario in, report out. Panics if the scenario
/// itself cannot run — fine for the curated q1–q5/fig7 scenarios the
/// tests and benches drive; use [`try_repair_scenario`] for anything
/// generated.
pub fn repair_scenario(scenario: &Scenario) -> RepairReport {
    match try_repair_scenario(scenario) {
        Ok(r) => r,
        Err(e) => panic!("scenario {} failed to run: {e}", scenario.id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::generate_missing;
    use mpr_ndlog::{Tuple, Value as V};

    #[test]
    fn q1_produces_paper_shaped_results() {
        let scenario = Scenario::q1_copy_paste();
        let report = repair_scenario(&scenario);
        // A healthy handful of candidates, a small accepted set (Table 1:
        // 9 generated / 2 accepted).
        assert!(
            (5..=16).contains(&report.generated()),
            "generated {}:\n{}",
            report.generated(),
            report.render_table()
        );
        assert!(
            (1..=4).contains(&report.accepted_count()),
            "accepted {}:\n{}",
            report.accepted_count(),
            report.render_table()
        );
        // The intuitive fix is generated AND accepted.
        let reference = report
            .outcomes
            .iter()
            .position(|o| o.candidate.description.contains(&scenario.reference_fix))
            .expect("reference fix generated");
        assert!(
            report.outcomes[reference].accepted,
            "reference fix rejected:\n{}",
            report.render_table()
        );
        // The manual flow-entry repair is accepted too (Table 2 candidate A).
        assert!(report
            .outcomes
            .iter()
            .any(|o| o.candidate.description.contains("Manually installing") && o.accepted));
        // Over-general repairs (operator flips) are generated but rejected.
        assert!(report
            .outcomes
            .iter()
            .any(|o| o.candidate.description.contains("Swi != 2") && !o.accepted));
    }

    #[test]
    fn timings_are_populated() {
        let scenario = Scenario::q1_copy_paste();
        let report = repair_scenario(&scenario);
        assert!(report.timings.total() > Duration::ZERO);
        assert!(report.timings.replay > Duration::ZERO);
        assert!(report.trees > 0);
    }

    #[test]
    fn fig7_times_every_pool_it_counts() {
        // Fig. 9a's "constraint solving" slice: a positive symptom's
        // per-site domain scan is a pool solved, and is timed as one.
        let scenario = Scenario::fig7_harmful_entry();
        let dbg = Debugger::for_scenario(&scenario);
        let (world, ..) = dbg.observe().unwrap();
        let Symptom::Existing(culprit) = &scenario.symptom else { unreachable!("Fig. 7 is a positive symptom") };
        let (_, stats) = generate_existing(&world, culprit);
        assert!(stats.pools_solved > 0, "Fig. 7 scans the domain of `Swi == 1`");
        assert!(stats.solver_ns > 0, "{} pools solved in no time", stats.pools_solved);
        assert!(repair_scenario(&scenario).timings.constraint_solving > Duration::ZERO);
    }

    /// Q1's debugger, its setup, and the first two patch candidates the
    /// explorer generates for it.
    fn q1_with_two_patches() -> (Debugger, BacktestSetup, [Candidate; 2]) {
        let scenario = Scenario::q1_copy_paste();
        let dbg = Debugger::for_scenario(&scenario);
        let (world, ..) = dbg.observe().unwrap();
        let Symptom::Missing(goal) = &scenario.symptom else { unreachable!("Q1 is a missing-tuple query") };
        let (generated, _) = generate_missing(&world, goal);
        let mut good = generated.into_iter().filter(|c| matches!(c.repair, Repair::Patch(_)));
        let patches = [good.next().unwrap(), good.next().unwrap()];
        let setup = dbg.setup();
        (dbg, setup, patches)
    }

    fn hand_built(repair: Repair) -> Candidate {
        Candidate { repair, cost: 1, description: "hand-built".into(), trace: Vec::new() }
    }

    fn stats(o: &Option<ReplayOutcome>) -> Option<mpr_sdn::sim::SimStats> {
        o.as_ref().map(|o| o.stats.clone())
    }

    /// What the backtest's per-candidate fallback answers for `candidates`:
    /// these tests check which of its two routes the backtest takes, and
    /// that the routes agree.
    fn fallback_of(dbg: &Debugger, candidates: &[Candidate]) -> Vec<Option<ReplayOutcome>> {
        dbg.fallback(&dbg.setup(), dbg.outline().unwrap(), candidates)
    }

    #[test]
    fn one_unapplicable_patch_does_not_take_the_others_off_the_joint_path() {
        use mpr_ndlog::patch::{Edit, Patch};
        let (dbg, setup, [first, last]) = q1_with_two_patches();
        // Between two good candidates, one whose patch names a rule the
        // program does not have, and one that takes a seed away.
        let broken =
            hand_built(Repair::Patch(Patch::single(Edit::DeleteRule { rule: "no-such-rule".into() })));
        let unseeded = hand_built(Repair::DeleteTuple(setup.seeds[0].clone()));
        let (with, handed_back, jointly) =
            dbg.backtest(&[first.clone(), broken, unseeded.clone(), last.clone()]).unwrap();
        let (without, ..) = dbg.backtest(&[first, last]).unwrap();
        assert_eq!((handed_back, jointly), (0, true), "the three good candidates replay jointly, none handed back");
        assert!(with[1].is_none(), "the broken candidate has no outcome");
        assert!(without.iter().all(Option::is_some));
        assert_eq!([stats(&with[0]), stats(&with[3])], [stats(&without[0]), stats(&without[1])]);
        // Q1 has one seed: without it, the candidate is the bare network.
        assert_eq!(setup.seeds.len(), 1);
        let alone = BacktestSetup { seeds: Vec::new(), ..setup.clone() };
        let bare = mpr_backtest::replay::replay(&alone, &dbg.scenario.program).unwrap();
        assert_eq!(stats(&with[2]), Some(bare.stats), "the candidate without the seed");
        assert_eq!(stats(&with[2]), stats(&fallback_of(&dbg, &[unseeded])[0]), "both routes agree on it");
    }

    #[test]
    fn tuple_repairs_ride_the_joint_replay() {
        let (dbg, setup, [first, last]) = q1_with_two_patches();
        let seed = setup.seeds[0].clone();
        assert_eq!(&*seed.table, "WebLoadBalancer", "keyed on the header, read by r1");
        let balancer = |hdr: i64, prt: i64| Tuple::new("WebLoadBalancer", seed.loc.clone(), vec![V::Int(hdr), V::Int(prt)]);
        let candidates = [
            first,
            hand_built(Repair::InsertTuple(balancer(53, 3))),
            hand_built(Repair::DeleteTuple(seed.clone())),
            hand_built(Repair::ChangeTuple { from: seed.clone(), to: balancer(80, 3) }),
            // A second payload under the seed's key: the engine replaces,
            // the joint state cannot, and hands the candidate back.
            hand_built(Repair::InsertTuple(balancer(80, 3))),
            last,
        ];
        let (joint, handed_back, _) = dbg.backtest(&candidates).unwrap();
        assert_eq!(handed_back, 1);
        let fallback = fallback_of(&dbg, &candidates);
        assert!(fallback.iter().all(Option::is_some));
        for (i, (got, want)) in joint.iter().zip(&fallback).enumerate() {
            assert_eq!(stats(got), stats(want), "candidate {i}: {:?}", candidates[i].repair);
        }
        // Both routes read each candidate's seeds as these, spelled out
        // (`None`: the setup's own, Q1's one seed).
        assert_eq!(setup.seeds, [seed.clone()]);
        let want = [
            None,
            Some(vec![seed.clone(), balancer(53, 3)]),
            Some(vec![]),
            Some(vec![balancer(80, 3)]),
            Some(vec![seed.clone(), balancer(80, 3)]),
            None,
        ];
        for (c, want) in candidates.iter().zip(want) {
            let input = c.repair.replay_input(&dbg.scenario.program, dbg.outline().unwrap(), &setup);
            assert_eq!(input.seeds, want, "{:?}", c.repair);
        }
        // The tuple repairs are no copies of the base: they change what
        // reaches the servers.
        let flow_mods: Vec<u64> = joint.iter().flatten().map(|o| o.stats.flow_mods).collect();
        assert!(flow_mods[1..5].iter().any(|&n| n != flow_mods[2]), "{flow_mods:?}");
    }

    /// Per candidate: description, effective, KS distance, accepted.
    fn verdicts(outcomes: &[CandidateOutcome]) -> Vec<(String, bool, f64, bool)> {
        outcomes.iter().map(|o| (o.candidate.description.clone(), o.effective, o.ks.d, o.accepted)).collect()
    }

    #[test]
    fn mqo_and_sequential_agree_on_acceptance() {
        let dbg = Debugger::for_scenario(&Scenario::q1_copy_paste());
        let report = dbg.diagnose_and_repair().unwrap();
        assert!(report.backtested_jointly);
        let candidates: Vec<Candidate> = report.outcomes.iter().map(|o| o.candidate.clone()).collect();
        let fallback = fallback_of(&dbg, &candidates);
        let (outcomes, accepted) = dbg.judge(&report.baseline, candidates, fallback);
        assert_eq!(verdicts(&report.outcomes), verdicts(&outcomes));
        assert_eq!(report.accepted, accepted);
    }

    /// More candidates than a tag set holds: one joint replay per 64, the
    /// hand-backs of both named, and every outcome the fallback's.
    #[test]
    fn more_candidates_than_a_tag_set_holds_ride_two_joint_replays() {
        let (dbg, setup, [first, last]) = q1_with_two_patches();
        let seed = setup.seeds[0].clone();
        let balancer = |hdr: i64, prt: i64| Tuple::new("WebLoadBalancer", seed.loc.clone(), vec![V::Int(hdr), V::Int(prt)]);
        let kinds = [
            first,
            hand_built(Repair::InsertTuple(balancer(53, 3))),
            hand_built(Repair::DeleteTuple(seed.clone())),
            hand_built(Repair::ChangeTuple { from: seed.clone(), to: balancer(80, 3) }),
            // Handed back, as in `tuple_repairs_ride_the_joint_replay`.
            hand_built(Repair::InsertTuple(balancer(80, 3))),
            last,
        ];
        let candidates: Vec<Candidate> = (0..70).map(|i| kinds[i % kinds.len()].clone()).collect();
        let (joint, handed_back, jointly) = dbg.backtest(&candidates).unwrap();
        // Eleven are the handed-back kind: 4, 10, …, 58 in the first
        // replay, 64 in the second.
        assert_eq!((handed_back, jointly), (11, true));
        assert_eq!(dbg.backtest(&candidates[64..]).unwrap().1, 1);
        let fallback = fallback_of(&dbg, &candidates);
        assert!(fallback.iter().all(Option::is_some));
        for (i, (got, want)) in joint.iter().zip(&fallback).enumerate() {
            assert_eq!(stats(got), stats(want), "candidate {i}: {:?}", candidates[i].repair);
        }
    }
}
