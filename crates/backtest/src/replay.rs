//! Sequential backtesting: replay the recorded workload against a candidate
//! program in a fresh simulated network (§4.3).

use mpr_ndlog::{Program, Tuple};
use mpr_runtime::Options as EngineOptions;
use mpr_sdn::controller::{NdlogController, TupleCodec};
use mpr_sdn::sim::{SimConfig, SimStats, Simulation};
use mpr_sdn::topology::Topology;
use mpr_trace::workload::Injection;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything needed to re-create the network for a backtest run.
///
/// The immutable artifacts — topology (with its memoized route cache) and
/// workload — are behind `Arc`, so cloning a setup per candidate shares
/// them instead of deep-copying per replay.
#[derive(Clone)]
pub struct BacktestSetup {
    /// The network (shared across candidate replays).
    pub topology: Arc<Topology>,
    /// Packet ↔ tuple mapping.
    pub codec: TupleCodec,
    /// Controller state seeded before replay (configuration tuples).
    pub seeds: Vec<Tuple>,
    /// The workload to replay (from the history log or a generator).
    pub workload: Arc<Vec<Injection>>,
    /// Simulator configuration.
    pub config: SimConfig,
    /// Install proactive shortest-path routes underneath the app
    /// (priority 1, overridden by reactive entries).
    pub proactive_routes: bool,
    /// Engine options for the replay controllers (strategy, durability, …).
    /// `record_events` is set per run regardless — off for a backtest,
    /// which needs speed, not explanations; on for the observation run.
    /// The kill-and-restart harness uses this to run an engine that logs
    /// its inputs to a WAL.
    pub engine: EngineOptions,
}

/// Outcome of replaying one program.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Simulator counters.
    pub stats: SimStats,
    /// Per-host delivery distribution (the KS input).
    pub delivered: BTreeMap<i64, u64>,
}

impl ReplayOutcome {
    /// What a finished run's counters leave for the KS filter.
    pub fn of(stats: SimStats) -> ReplayOutcome {
        ReplayOutcome { delivered: stats.delivered.clone(), stats }
    }
}

/// Run `program` as the controller of the setup's network over its whole
/// workload and hand back the finished simulation: its counters, its flow
/// tables and, through the controller, the engine and the log it kept.
/// This is the one place a workload is driven: a backtest replay reads the
/// counters, the debugger's observation run takes the log
/// (`record_events` on), the kill-and-restart harness reads the engine's
/// input log and final state. The controller shares `program`, it does not copy it.
pub fn drive(
    setup: &BacktestSetup,
    program: Arc<Program>,
    record_events: bool,
    extra_flows: &[(i64, mpr_sdn::flowtable::FlowEntry)],
) -> Result<Simulation<NdlogController>, String> {
    let opts = EngineOptions { record_events, ..setup.engine.clone() };
    let mut ctrl = NdlogController::with_options(program, setup.codec.clone(), opts)
        .map_err(|e| e.to_string())?;
    ctrl.seed(setup.seeds.clone()).map_err(|e| e.to_string())?;
    let mut sim = Simulation::new(setup.topology.clone(), ctrl, setup.config.clone());
    if setup.proactive_routes {
        sim.install_proactive_routes();
    }
    for (sw, entry) in extra_flows {
        sim.tables.install(*sw, entry.clone());
    }
    sim.run_workload(&setup.workload);
    Ok(sim)
}

/// Replay the workload against `program`. Each run builds a fresh network
/// and controller; provenance recording is off (backtests need speed, not
/// explanations).
pub fn replay(setup: &BacktestSetup, program: &Program) -> Result<ReplayOutcome, String> {
    replay_with_extra_flows(setup, program, &[])
}

/// [`replay`], additionally pre-installing `extra_flows` — the
/// "manually installing a flow entry" repairs (Table 2 candidate A) are
/// tuple insertions, not program patches.
pub fn replay_with_extra_flows(
    setup: &BacktestSetup,
    program: &Program,
    extra_flows: &[(i64, mpr_sdn::flowtable::FlowEntry)],
) -> Result<ReplayOutcome, String> {
    drive(setup, Arc::new(program.clone()), false, extra_flows).map(|sim| ReplayOutcome::of(sim.stats))
}

/// One candidate's materialized replay inputs, for [`replay_candidates`].
#[derive(Clone)]
pub struct CandidateRun {
    /// The patched program; `None` when the patch failed to compile (the
    /// candidate's outcome slot stays `None`).
    pub program: Option<Program>,
    /// Controller seeds for this candidate (patches may perturb them).
    pub seeds: Vec<Tuple>,
    /// Pre-installed manual flow entries.
    pub extra_flows: Vec<(i64, mpr_sdn::flowtable::FlowEntry)>,
}

/// Replay every candidate on its own: a fresh controller and network each,
/// one after the other, the results index-aligned. This is the
/// per-candidate fallback — the debugger's backtest under a fault plan,
/// and for the candidates a joint replay hands back. It drives the
/// workload through [`drive`], so the simulator's injection memo and the
/// engine's step memo run inside it; the tests hold it and the joint
/// replay to one memo-free `inject` + `run` loop.
/// `None` marks a candidate that failed to compile, whose replay errored,
/// or whose replay panicked (contained per candidate — one pathological
/// candidate cannot take down the loop).
pub fn replay_candidates(
    setup: &BacktestSetup,
    candidates: &[CandidateRun],
) -> Vec<Option<ReplayOutcome>> {
    each_contained(candidates, |c| {
        let program = c.program.as_ref()?;
        let setup = BacktestSetup { seeds: c.seeds.clone(), ..setup.clone() };
        replay_with_extra_flows(&setup, program, &c.extra_flows).ok()
    })
}

/// `f` over `items`, in order. A panic inside `f` is that item's `None`,
/// and the items after it still run.
fn each_contained<T, R>(items: &[T], f: impl Fn(&T) -> Option<R>) -> Vec<Option<R>> {
    let contained = |t| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(t))).ok().flatten();
    items.iter().map(contained).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_ndlog::parse_program;
    use mpr_sdn::packet::Packet;
    use mpr_sdn::topology::{fig1, fig1_hosts};

    fn setup() -> BacktestSetup {
        let workload: Vec<Injection> = (0..20)
            .map(|i| {
                (
                    fig1_hosts::INTERNET,
                    Packet::http(i, 50 + (i as i64 % 5), fig1_hosts::H1),
                )
            })
            .collect();
        BacktestSetup {
            topology: Arc::new(fig1()),
            codec: TupleCodec::fig2(),
            seeds: vec![],
            workload: Arc::new(workload),
            config: SimConfig::default(),
            proactive_routes: false,
            engine: EngineOptions::default(),
        }
    }

    fn mini_program() -> Program {
        parse_program(
            "mini",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            ",
        )
        .unwrap()
    }

    #[test]
    fn replay_counts_deliveries() {
        let out = replay(&setup(), &mini_program()).unwrap();
        // First two packets warm up S1 and S2; the rest reach H1.
        assert_eq!(out.delivered.get(&fig1_hosts::H1).copied().unwrap_or(0), 18);
        assert_eq!(out.stats.flow_mods, 2);
    }

    #[test]
    fn replay_is_deterministic() {
        let a = replay(&setup(), &mini_program()).unwrap();
        let b = replay(&setup(), &mini_program()).unwrap();
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.stats.packet_ins, b.stats.packet_ins);
    }

    #[test]
    fn replay_candidates_is_index_aligned_and_skips_what_has_no_program() {
        let run = |program| CandidateRun { program, seeds: vec![], extra_flows: vec![] };
        let outs = replay_candidates(&setup(), &[run(Some(mini_program())), run(None), run(Some(mini_program()))]);
        let flow_mods: Vec<Option<u64>> = outs.iter().map(|o| o.as_ref().map(|o| o.stats.flow_mods)).collect();
        assert_eq!(flow_mods, [Some(2), None, Some(2)]);
    }

    #[test]
    fn a_panicking_candidate_is_contained_and_spares_the_rest() {
        let items: Vec<i64> = (0..9).collect();
        let out = each_contained(&items, |&x| {
            assert!(x % 5 != 3, "poisoned item {x}");
            (x != 0).then_some(x * 2)
        });
        let want: Vec<Option<i64>> =
            items.iter().map(|&x| (x != 0 && x % 5 != 3).then_some(x * 2)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn extra_flows_implement_manual_repairs() {
        use mpr_sdn::flowtable::{Action, FlowEntry, Match};
        use mpr_sdn::packet::Field;
        // Program that drops everything; a manual entry saves H1's traffic.
        let prog = parse_program(
            "drop",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := -1.
            ",
        )
        .unwrap();
        let manual = vec![
            (1i64, FlowEntry::new(50, Match::any().with(Field::DstPort, 80), vec![Action::Output(1)])),
            (2i64, FlowEntry::new(50, Match::any().with(Field::DstPort, 80), vec![Action::Output(1)])),
        ];
        let without = replay(&setup(), &prog).unwrap();
        let with = replay_with_extra_flows(&setup(), &prog, &manual).unwrap();
        assert_eq!(without.delivered.get(&fig1_hosts::H1), None);
        assert_eq!(with.delivered.get(&fig1_hosts::H1).copied().unwrap_or(0), 20);
    }
}
