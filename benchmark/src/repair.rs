//! The repair operation, its golden check, and the staged drive.
//!
//! A timed operation is one `Debugger::diagnose_and_repair`. The staged
//! drive walks the same public entry points one stage at a time —
//! observe, generate, apply, backtest (three ways), KS — so a traced run
//! can put a span around each layer, and so every block can cross-check
//! the goldens against the per-candidate `replay` path, which shares no
//! code with the joint backtest the whole operation normally takes.

use crate::trace::Tracer;
use mpr_backtest::ks::ks_two_sample;
use mpr_backtest::mqo::{mqo_replay, ExtraFlows};
use mpr_backtest::replay::{
    replay_candidates, replay_with_extra_flows, BacktestSetup, CandidateRun, ReplayOutcome,
};
use mpr_core::debugger::{Debugger, RepairReport};
use mpr_core::explore::{generate_missing, ExploreStats};
use mpr_core::repair::{Candidate, Repair};
use mpr_core::scenarios::{Scenario, Symptom};
use mpr_ndlog::patch::Edit;
use mpr_ndlog::{Program, Tuple};
use mpr_sdn::controller::{PktArg, TupleCodec};
use mpr_sdn::flowtable::{Action, FlowEntry, Match};
use std::sync::Arc;

/// What a scenario's repair must produce (one entry of a golden file).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGolden {
    /// Candidates generated.
    pub generated: usize,
    /// Accepted candidates' descriptions, in presentation order.
    pub accepted: Vec<String>,
    /// The fix a human would pick is generated and accepted.
    pub reference_accepted: bool,
}

/// The checked part of a repair's output.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutput {
    /// Candidates generated.
    pub generated: usize,
    /// Accepted descriptions in presentation order.
    pub accepted: Vec<String>,
    /// The reference fix is among the accepted.
    pub reference_accepted: bool,
}

impl RepairOutput {
    /// Project a debugger report onto what the goldens pin.
    pub fn of(scenario: &Scenario, report: &RepairReport) -> Self {
        let accepted: Vec<String> = report
            .accepted
            .iter()
            .map(|&i| report.outcomes[i].candidate.description.clone())
            .collect();
        let reference_accepted = accepted.iter().any(|d| d.contains(&scenario.reference_fix));
        RepairOutput {
            generated: report.generated(),
            accepted,
            reference_accepted,
        }
    }

    /// Compare against the golden. `full` also compares the accepted list;
    /// without it only the seed-independent part is checked.
    pub fn check(&self, golden: &ScenarioGolden, full: bool) -> Result<(), String> {
        if self.generated != golden.generated {
            return Err(format!(
                "generated {} candidates, golden {}",
                self.generated, golden.generated
            ));
        }
        if self.reference_accepted != golden.reference_accepted {
            return Err(format!(
                "reference fix accepted = {}, golden {}",
                self.reference_accepted, golden.reference_accepted
            ));
        }
        if full && self.accepted != golden.accepted {
            return Err(format!(
                "accepted {:?}, golden {:?}",
                self.accepted, golden.accepted
            ));
        }
        Ok(())
    }
}

/// One whole operation: the call a user makes.
pub fn whole_operation(scenario: &Scenario) -> Result<RepairOutput, String> {
    let report = Debugger::for_scenario(scenario).diagnose_and_repair()?;
    Ok(RepairOutput::of(scenario, &report))
}

/// Counts a staged drive reads off the layers' return values.
#[derive(Debug, Clone, Default)]
pub struct StagedCounts {
    /// Candidates after the language-legality filter.
    pub candidates: usize,
    /// Explorer counters.
    pub explore: ExploreStats,
}

/// Drive `scenario` stage by stage, one span per call, and return the
/// accepted set as the per-candidate `replay` path sees it. Fails if the
/// joint, pooled and per-candidate backtests disagree on it.
///
/// `Symptom::Existing` scenarios stop after observe: their derivation
/// helper is private to the debugger, so they return `None`.
pub fn staged_drive(
    scenario: &Scenario,
    tr: &mut Tracer,
) -> Result<Option<(RepairOutput, StagedCounts)>, String> {
    let debugger = Debugger::for_scenario(scenario);
    let (world, baseline, _, _) = tr.span("core.observe", || debugger.observe())?;
    let Symptom::Missing(goal) = &scenario.symptom else {
        return Ok(None);
    };
    let (mut candidates, explore) = tr.span("core.explore", || generate_missing(&world, goal));
    if !scenario.op_repairs {
        candidates.retain(|c| !is_operator_edit(&c.repair));
    }

    let setup = BacktestSetup {
        topology: scenario.topology.clone(),
        codec: scenario.codec.clone(),
        seeds: scenario.seeds.clone(),
        workload: Arc::new(scenario.workload.clone()),
        config: scenario.sim.clone(),
        proactive_routes: false,
        engine: mpr_runtime::Options::default(),
    };
    let runs: Vec<CandidateRun> = candidates
        .iter()
        .map(|c| {
            let mut seeds = setup.seeds.clone();
            let mut extra_flows: ExtraFlows = Vec::new();
            match &c.repair {
                Repair::InsertTuple(t) if names_switch_table(&setup.codec, t) => {
                    extra_flows.extend(manual_flow_entry(&setup.codec, t));
                }
                other => other.adjust_seeds(&mut seeds),
            }
            let program = tr.span("ndlog.patch_apply", || {
                c.repair.apply(&scenario.program).ok()
            });
            CandidateRun {
                program,
                seeds,
                extra_flows,
            }
        })
        .collect();

    // Three backtests of the same candidate set.
    let compiled: Option<Vec<Program>> = runs.iter().map(|r| r.program.clone()).collect();
    let joint = match compiled {
        Some(programs) if runs.len() <= 64 && runs.iter().all(|r| r.seeds == setup.seeds) => {
            let extra: Vec<ExtraFlows> = runs.iter().map(|r| r.extra_flows.clone()).collect();
            let outs = tr.span("backtest.mqo_replay", || {
                mqo_replay(&setup, &scenario.program, &programs, &extra)
            });
            Some(outs.into_iter().map(Some).collect::<Vec<_>>())
        }
        _ => None,
    };
    let pooled = tr.span("backtest.replay_candidates", || {
        replay_candidates(&setup, &runs)
    });
    let single: Vec<Option<ReplayOutcome>> = runs
        .iter()
        .map(|r| {
            let program = r.program.as_ref()?;
            let per_candidate = BacktestSetup {
                seeds: r.seeds.clone(),
                ..setup.clone()
            };
            tr.span("backtest.replay", || {
                replay_with_extra_flows(&per_candidate, program, &r.extra_flows).ok()
            })
        })
        .collect();

    let reference = accepted_set(scenario, &candidates, &baseline, &single, tr);
    for (path, outs) in [
        ("mqo_replay", joint.as_ref()),
        ("replay_candidates", Some(&pooled)),
    ] {
        if let Some(outs) = outs {
            let other = accepted_set(scenario, &candidates, &baseline, outs, tr);
            if other != reference {
                return Err(format!(
                    "{}: {path} accepts {other:?}, per-candidate replay {reference:?}",
                    scenario.id
                ));
            }
        }
    }
    let output = RepairOutput {
        generated: candidates.len(),
        reference_accepted: reference
            .iter()
            .any(|d| d.contains(&scenario.reference_fix)),
        accepted: reference,
    };
    let counts = StagedCounts {
        candidates: candidates.len(),
        explore,
    };
    Ok(Some((output, counts)))
}

/// The debugger's accept rule over one backtest's outcomes: effective,
/// KS-indistinguishable from the baseline at α = 0.05, and no more than
/// 3× + 10 the baseline's controller traffic; presented by cost, then by
/// KS distance.
fn accepted_set(
    scenario: &Scenario,
    candidates: &[Candidate],
    baseline: &ReplayOutcome,
    outcomes: &[Option<ReplayOutcome>],
    tr: &mut Tracer,
) -> Vec<String> {
    let mut accepted: Vec<(u32, f64, usize)> = Vec::new();
    for (i, (c, out)) in candidates.iter().zip(outcomes).enumerate() {
        let Some(out) = out else { continue };
        let ks = tr.span("backtest.ks", || {
            ks_two_sample(&baseline.delivered, &out.delivered, 0.05)
        });
        let quiet = out.stats.packet_ins <= baseline.stats.packet_ins * 3 + 10;
        if scenario.effect.holds(&out.stats) && ks.accepted() && quiet {
            accepted.push((c.cost, ks.d, i));
        }
    }
    accepted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
    accepted
        .into_iter()
        .map(|(_, _, i)| candidates[i].description.clone())
        .collect()
}

/// Pyretic's `match` is equality-only: operator mutations are not legal
/// repairs there.
fn is_operator_edit(repair: &Repair) -> bool {
    matches!(repair, Repair::Patch(p) if p.edits.iter().any(|e| matches!(e, Edit::SetSelectionOp { .. })))
}

fn names_switch_table(codec: &TupleCodec, t: &Tuple) -> bool {
    t.table == codec.flow_table || Some(&t.table) == codec.packet_out_table.as_ref()
}

/// A manually inserted `FlowTable` tuple as a pre-installed entry
/// (priority 50, above reactive entries).
fn manual_flow_entry(codec: &TupleCodec, t: &Tuple) -> Option<(i64, FlowEntry)> {
    let switch = t.loc.as_int()?;
    if t.args.len() != codec.flow_match_args.len() + 1 {
        return None;
    }
    let mut m = Match::any();
    for (spec, v) in codec.flow_match_args.iter().zip(&t.args) {
        let v = v.as_int()?;
        m = match spec {
            PktArg::Field(f) => m.with(*f, v),
            PktArg::InPort => m.on_port(v),
        };
    }
    let port = t.args.last()?.as_int()?;
    let actions = if port < 0 {
        vec![Action::Drop]
    } else {
        vec![Action::Output(port)]
    };
    Some((switch, FlowEntry::new(50, m, actions)))
}
