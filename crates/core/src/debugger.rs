//! The debugger: the operator-facing loop of §2 — run the buggy network,
//! take a symptom query, generate candidate repairs from meta provenance,
//! backtest them, and return a ranked list.
//!
//! Phase timings mirror the Fig. 9a breakdown: **history lookups**
//! (scanning the log for triggers and state), **constraint solving**
//! (inside the explorer), **patch generation** (the rest of the explorer),
//! and **replay** (the buggy baseline plus candidate backtests).

use crate::explore::{generate_existing, generate_missing, World};
use crate::repair::{Candidate, Repair};
use crate::scenarios::{Scenario, Symptom};
use mpr_backtest::ks::{ks_two_sample, KsResult};
use mpr_backtest::mqo::{mqo_replay_deltas, mqo_supported, ExtraFlows};
use mpr_backtest::replay::{drive, replay_candidates, BacktestSetup, CandidateRun, ReplayOutcome};
use mpr_ndlog::{ProgramOutline, RuleDelta, Tuple};
use mpr_runtime::{ExecLog, Options as EngineOptions};
use mpr_trace::workload::Injection;
use std::sync::Arc;
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
    /// The candidates were backtested jointly, in one replay (§4.4), not
    /// by one reference replay each.
    pub backtested_jointly: bool,
    /// How many candidates of a joint backtest the replay handed back —
    /// they met something it does not mirror — and one reference replay
    /// each answered for.
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
    /// Use the §4.4 multi-query optimizer for joint backtesting.
    pub use_mqo: bool,
    /// Engine options for the observation run and every sequential
    /// backtest replay (strategy, durability, …). The kill-and-restart
    /// harness points this at a WAL so crashes mid-loop are recoverable.
    pub engine_options: EngineOptions,
}

impl Debugger {
    /// Build a debugger for a scenario.
    pub fn for_scenario(scenario: &Scenario) -> Debugger {
        let mut scenario = scenario.clone();
        Debugger {
            workload: Arc::new(std::mem::take(&mut scenario.workload)),
            scenario,
            use_mqo: true,
            engine_options: EngineOptions::default(),
        }
    }

    fn setup(&self) -> BacktestSetup {
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
    pub fn diagnose_and_repair(&mut self) -> Result<RepairReport, String> {
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
        let (candidates, stats) = match &self.scenario.symptom {
            Symptom::Missing(pattern) => generate_missing(&world, pattern),
            Symptom::Existing(tuple) => generate_existing(&world, tuple),
        };
        let candidates: Vec<Candidate> = if self.scenario.op_repairs {
            candidates
        } else {
            // Pyretic's `match` is equality-only (§5.8): operator
            // mutations are not expressible repairs in this language.
            candidates
                .into_iter()
                .filter(|c| match &c.repair {
                    Repair::Patch(p) => !p
                        .edits
                        .iter()
                        .any(|e| matches!(e, mpr_ndlog::patch::Edit::SetSelectionOp { .. })),
                    _ => true,
                })
                .collect()
        };
        let gen_total = t_gen.elapsed();
        let solving = Duration::from_nanos(stats.solver_ns.min(u64::MAX as u128) as u64);
        let patch_generation = gen_total.saturating_sub(solving);

        // --- backtesting ------------------------------------------------
        let t_back = Instant::now();
        let setup = self.setup();
        let (outcomes_raw, handed_back) = self.backtest(&setup, &candidates)?;
        let replay_time = recording.run_time + t_back.elapsed();

        let alpha = 0.05;
        let mut outcomes: Vec<CandidateOutcome> = Vec::new();
        for (cand, outcome) in candidates.into_iter().zip(outcomes_raw.into_iter()) {
            match outcome {
                Some(out) => {
                    let effective = self.scenario.effect.holds(&out.stats);
                    let ks = ks_two_sample(&baseline.delivered, &out.delivered, alpha);
                    // §4.3: operators can add metrics beyond the traffic
                    // distribution; Table 6c rejects Q4 candidates for
                    // "significant increases of controller traffic".
                    let controller_ok =
                        out.stats.packet_ins <= baseline.stats.packet_ins * 3 + 10;
                    let accepted = effective && ks.accepted() && controller_ok;
                    outcomes.push(CandidateOutcome { candidate: cand, effective, ks, accepted });
                }
                None => {
                    let ks = ks_two_sample(&baseline.delivered, &baseline.delivered, alpha);
                    outcomes.push(CandidateOutcome {
                        candidate: cand,
                        effective: false,
                        ks,
                        accepted: false,
                    });
                }
            }
        }
        // Presentation order: complexity (cost) first, then side-effect
        // size (§4.3: "the metrics can be used to rank the repairs").
        let mut accepted: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.accepted)
            .map(|(i, _)| i)
            .collect();
        accepted.sort_by(|&a, &b| {
            outcomes[a]
                .candidate
                .cost
                .cmp(&outcomes[b].candidate.cost)
                .then(outcomes[a].ks.d.partial_cmp(&outcomes[b].ks.d).unwrap_or(std::cmp::Ordering::Equal))
        });

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
            backtested_jointly: handed_back.is_some(),
            handed_back: handed_back.unwrap_or(0),
        })
    }

    /// Backtest every candidate, and say whether they went through the
    /// joint replay — `Some(how many of them it handed back)`. A `None`
    /// outcome marks a candidate whose patch does not apply or whose
    /// program does not run (it is reported as ineffective).
    ///
    /// A candidate is read as what it changes: a [`RuleDelta`] of the
    /// program, manual flow entries, and — only for a tuple repair that
    /// alters them — seeds of its own. The joint replay is built from
    /// that; whole programs and seed sets are made only for the reference,
    /// which replays everyone when the joint replay does not model the
    /// run, and otherwise whom it hands back.
    fn backtest(
        &self,
        setup: &BacktestSetup,
        candidates: &[Candidate],
    ) -> Result<(Vec<Option<ReplayOutcome>>, Option<usize>), String> {
        let base = &self.scenario.program;
        let outline = ProgramOutline::new(base)?;
        // A candidate whose patch does not apply has nothing to replay: it
        // rides along as the base program and its outcome is dropped.
        let mut deltas: Vec<RuleDelta> = Vec::new();
        let mut applies: Vec<bool> = Vec::new();
        let mut extra: Vec<ExtraFlows> = Vec::new();
        let mut seed_sets: Vec<Option<Vec<Tuple>>> = Vec::new();
        for c in candidates {
            let mut flows: ExtraFlows = Vec::new();
            let mut seeds = None;
            match &c.repair {
                Repair::Patch(_) => {}
                // A hand-installed entry sits at priority 50, above the
                // reactive ones.
                Repair::InsertTuple(t) if setup.codec.is_output(&t.table) => {
                    flows.extend(setup.codec.flow_entry(t, 50));
                }
                other => {
                    let mut adjusted = setup.seeds.clone();
                    other.adjust_seeds(&mut adjusted);
                    seeds = (adjusted != setup.seeds).then_some(adjusted);
                }
            }
            let delta = c.repair.delta(base, &outline);
            applies.push(delta.is_ok());
            deltas.push(delta.unwrap_or_default());
            extra.push(flows);
            seed_sets.push(seeds);
        }
        let reference = |which: &[usize]| {
            let runs: Vec<CandidateRun> = which
                .iter()
                .map(|&i| CandidateRun {
                    program: applies[i].then(|| deltas[i].overlay(base)),
                    seeds: seed_sets[i].clone().unwrap_or_else(|| setup.seeds.clone()),
                    extra_flows: extra[i].clone(),
                })
                .collect();
            replay_candidates(setup, &runs)
        };
        // The joint network has no clock and no faults, and the baseline
        // was observed under `setup.config`: with a fault plan the
        // candidates must meet the same faults, one simulator each. Its
        // controller does not aggregate.
        let fault_free = setup.config.faults.is_empty();
        if !(self.use_mqo && fault_free && candidates.len() <= 64 && mqo_supported(base)) {
            return Ok((reference(&(0..candidates.len()).collect::<Vec<_>>()), None));
        }
        let joint = mqo_replay_deltas(setup, base, &deltas, &extra, &seed_sets);
        // What the joint replay met and does not mirror, it hands back:
        // the joint outcome of a diverged candidate goes no further.
        let diverged = |i: usize| joint.diverged >> i & 1 == 1;
        let mut outs: Vec<Option<ReplayOutcome>> = (joint.outcomes.into_iter().enumerate())
            .map(|(i, out)| (applies[i] && !diverged(i)).then_some(out))
            .collect();
        let handed_back: Vec<usize> = (0..outs.len()).filter(|&i| applies[i] && diverged(i)).collect();
        for (i, own) in handed_back.iter().zip(reference(&handed_back)) {
            debug_assert!(outs[*i].is_none(), "candidate {i} diverged, and its joint outcome was kept");
            outs[*i] = own;
        }
        Ok((outs, Some(handed_back.len())))
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
    use mpr_ndlog::Value as V;

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

    #[test]
    fn one_unapplicable_patch_does_not_take_the_others_off_the_joint_path() {
        use mpr_ndlog::patch::{Edit, Patch};
        let (dbg, setup, [first, last]) = q1_with_two_patches();
        // Between two good candidates, one whose patch names a rule the
        // program does not have, and one that takes a seed away.
        let broken =
            hand_built(Repair::Patch(Patch::single(Edit::DeleteRule { rule: "no-such-rule".into() })));
        let unseeded = hand_built(Repair::DeleteTuple(setup.seeds[0].clone()));
        let (with, jointly) =
            dbg.backtest(&setup, &[first.clone(), broken, unseeded, last.clone()]).unwrap();
        let (without, _) = dbg.backtest(&setup, &[first, last]).unwrap();
        assert_eq!(jointly, Some(0), "the three good candidates replay jointly, none handed back");
        assert!(with[1].is_none(), "the broken candidate has no outcome");
        assert!(without.iter().all(Option::is_some));
        assert_eq!([stats(&with[0]), stats(&with[3])], [stats(&without[0]), stats(&without[1])]);
        let alone = BacktestSetup { seeds: Vec::new(), ..setup.clone() };
        let reference = mpr_backtest::replay::replay(&alone, &dbg.scenario.program).unwrap();
        assert_eq!(stats(&with[2]), Some(reference.stats), "the candidate without the seed");
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
        let (joint, handed_back) = dbg.backtest(&setup, &candidates).unwrap();
        assert_eq!(handed_back, Some(1));
        let runs: Vec<CandidateRun> = candidates
            .iter()
            .map(|c| {
                let mut seeds = setup.seeds.clone();
                c.repair.adjust_seeds(&mut seeds);
                let program = c.repair.apply(&dbg.scenario.program).ok();
                CandidateRun { program, seeds, extra_flows: Vec::new() }
            })
            .collect();
        let reference = replay_candidates(&setup, &runs);
        assert!(reference.iter().all(Option::is_some));
        for (i, (got, want)) in joint.iter().zip(&reference).enumerate() {
            assert_eq!(stats(got), stats(want), "candidate {i}: {:?}", candidates[i].repair);
        }
        // The tuple repairs are no copies of the base: they change what
        // reaches the servers.
        let flow_mods: Vec<u64> = joint.iter().flatten().map(|o| o.stats.flow_mods).collect();
        assert!(flow_mods[1..5].iter().any(|&n| n != flow_mods[2]), "{flow_mods:?}");
    }

    #[test]
    fn mqo_and_sequential_agree_on_acceptance() {
        let scenario = Scenario::q1_copy_paste();
        let mut d1 = Debugger::for_scenario(&scenario);
        d1.use_mqo = true;
        let r1 = d1.diagnose_and_repair().unwrap();
        let mut d2 = Debugger::for_scenario(&scenario);
        d2.use_mqo = false;
        let r2 = d2.diagnose_and_repair().unwrap();
        assert!(r1.backtested_jointly && !r2.backtested_jointly);
        let a1: Vec<String> = r1
            .accepted
            .iter()
            .map(|&i| r1.outcomes[i].candidate.description.clone())
            .collect();
        let a2: Vec<String> = r2
            .accepted
            .iter()
            .map(|&i| r2.outcomes[i].candidate.description.clone())
            .collect();
        assert_eq!(a1, a2);
    }
}
