//! Chaos search: sweep seeded random fault schedules over the §5.3
//! scenarios, looking for schedules the diagnose → repair → backtest loop
//! cannot recover from.
//!
//! The harness is deterministic end to end: a [`FaultClass`] plus a seed
//! expands to one concrete [`FaultPlan`] via [`random_plan`] (seeded RNG,
//! topology walked in sorted order), and running the same `(scenario,
//! class, seed)` triple twice yields byte-identical [`ChaosOutcome`]s —
//! the property the CI `chaos` job pins.
//!
//! **Recovery** means the full loop ran to completion and still produced
//! repair candidates: no process abort, no panic escaping a worker, a
//! [`RepairReport`] with `generated() > 0`. Acceptance may legitimately
//! drop to zero under heavy faults — a network that eats half its control
//! messages can reject every candidate — and that still counts as
//! graceful degradation, not a survivor. A **survivor** is a schedule
//! where the loop itself breaks: an error return, an escaped panic, or an
//! empty candidate set. Survivors are shrunk by [`minimize`] (greedy
//! delta debugging over the plan's components) and pinned as
//! [`regression_cases`] so they can never silently regress.

use crate::debugger::{try_repair_scenario, RepairReport};
use crate::scenarios::Scenario;
use mpr_backtest::replay::{drive, BacktestSetup};
use mpr_ndlog::{Persistence, Program, Tuple};
use mpr_runtime::{Durability, Engine, EngineRecovery, ExecLog, Options as EngineOptions, WalOptions};
use mpr_sdn::topology::{NodeRef, Topology};
use mpr_sdn::{CtrlFaults, FaultPlan, LinkFault, SwitchCrash};
use mpr_storage::{StorageBackend, WalBackend, WalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A family of fault schedules the harness knows how to randomize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// One or two links held down for a contiguous window.
    LinkOutage,
    /// A link flapping up and down through the run.
    LinkFlap,
    /// A switch losing its flow table and going dark, possibly twice.
    SwitchCrash,
    /// Control-channel misbehavior: drop, duplicate, delay, reorder.
    CtrlChaos,
}

impl FaultClass {
    /// Every class, in sweep order. Process death is not among them: it
    /// has no network schedule, and [`kill_sweep`] probes it at the
    /// storage layer instead.
    pub const ALL: [FaultClass; 4] =
        [FaultClass::LinkOutage, FaultClass::LinkFlap, FaultClass::SwitchCrash, FaultClass::CtrlChaos];

    /// Stable display name (used in tables and artifact keys).
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::LinkOutage => "link-outage",
            FaultClass::LinkFlap => "link-flap",
            FaultClass::SwitchCrash => "switch-crash",
            FaultClass::CtrlChaos => "ctrl-chaos",
        }
    }
}

/// Every undirected link of `topology`, in a deterministic (sorted) order.
/// Walks switch ports only — host-to-host links do not exist — and keeps
/// each link once under `NodeRef`'s `Ord`.
pub fn all_links(topology: &Topology) -> Vec<(NodeRef, NodeRef)> {
    let mut links = Vec::new();
    for &s in &topology.switches {
        let a = NodeRef::Switch(s);
        for (_, (b, _)) in topology.links_of(a) {
            links.push(if a <= b { (a, b) } else { (b, a) });
        }
    }
    links.sort();
    links.dedup();
    links
}

/// Expand `(class, seed)` into one concrete schedule for `topology`.
/// Deterministic: the same inputs always yield the same plan. Times are
/// chosen inside the first ~200 simulated ticks, which covers the
/// scenario workloads (each injection restarts the clock's event cascade,
/// so early windows hit real traffic).
pub fn random_plan(class: FaultClass, seed: u64, topology: &Topology) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let links = all_links(topology);
    let switches: Vec<i64> = topology.switches.iter().copied().collect();
    let mut plan = FaultPlan { seed, ..FaultPlan::default() };
    match class {
        FaultClass::LinkOutage => {
            let n = 1 + (rng.gen_range(0..2) as usize).min(links.len().saturating_sub(1));
            for k in 0..n {
                let (a, b) = links[(rng.gen_range(0..links.len() as u64) as usize + k) % links.len()];
                let from = rng.gen_range(0..120u64);
                let len = rng.gen_range(10..160u64);
                plan.links.push(LinkFault::down(a, b, from, from + len));
            }
        }
        FaultClass::LinkFlap => {
            let (a, b) = links[rng.gen_range(0..links.len() as u64) as usize];
            let from = rng.gen_range(0..40u64);
            let period = rng.gen_range(2..20u64);
            plan.links.push(LinkFault::flap(a, b, from, from + rng.gen_range(80..240u64), period));
        }
        FaultClass::SwitchCrash => {
            let sw = switches[rng.gen_range(0..switches.len() as u64) as usize];
            let at = rng.gen_range(0..100u64);
            let down_for = rng.gen_range(10..120u64);
            plan.crashes.push(SwitchCrash { switch: sw, at, down_for });
            if rng.gen_range(0..2u64) == 1 && switches.len() > 1 {
                let sw2 = switches[rng.gen_range(0..switches.len() as u64) as usize];
                let at2 = at + down_for + rng.gen_range(5..60u64);
                plan.crashes.push(SwitchCrash { switch: sw2, at: at2, down_for: rng.gen_range(10..80u64) });
            }
        }
        FaultClass::CtrlChaos => {
            plan.ctrl = CtrlFaults {
                drop_chance: rng.gen_range(0..40u64) as f64 / 100.0,
                dup_chance: rng.gen_range(0..30u64) as f64 / 100.0,
                delay_chance: rng.gen_range(0..40u64) as f64 / 100.0,
                delay_min: 1,
                delay_max: rng.gen_range(1..12u64),
                reorder: rng.gen_range(0..2u64) == 1,
            };
        }
    }
    plan
}

/// One `(scenario, class, seed)` probe of the repair loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Scenario id ("Q1").
    pub scenario: String,
    /// The fault class swept.
    pub class: FaultClass,
    /// The seed that expanded into the plan.
    pub seed: u64,
    /// The concrete schedule that ran.
    pub plan: FaultPlan,
    /// The loop completed and generated candidates.
    pub recovered: bool,
    /// Candidates generated (0 when the loop errored).
    pub generated: usize,
    /// Candidates accepted by backtesting under the faulty network.
    pub accepted: usize,
    /// The loop's error (or escaped-panic payload) when not recovered.
    pub error: Option<String>,
}

/// The message of a panic `catch_unwind` caught.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().map(|m| (*m).to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned()).unwrap_or_else(|| "opaque panic payload".into())
}

/// Run the full diagnose → repair → backtest loop on `scenario` with
/// `plan` installed in its simulator config. Panics anywhere inside the
/// loop are contained here (the chaos harness must outlive what it
/// probes) and reported as a non-recovery with the panic payload.
pub fn run_under_plan(scenario: &Scenario, plan: &FaultPlan) -> ChaosOutcome {
    let mut s = scenario.clone();
    s.sim.faults = plan.clone();
    let result: Result<Result<RepairReport, String>, String> =
        catch_unwind(AssertUnwindSafe(|| try_repair_scenario(&s))).map_err(panic_message);
    let (generated, accepted, error) = match result {
        Ok(Ok(report)) => (report.generated(), report.accepted_count(), None),
        Ok(Err(e)) => (0, 0, Some(format!("loop error: {e}"))),
        Err(panic) => (0, 0, Some(format!("escaped panic: {panic}"))),
    };
    ChaosOutcome {
        scenario: scenario.id.clone(),
        class: FaultClass::CtrlChaos, // overwritten by the sweep; meaningless alone
        seed: plan.seed,
        plan: plan.clone(),
        recovered: generated > 0,
        generated,
        accepted,
        error: error.or_else(|| (generated == 0).then(|| "no candidates generated".into())),
    }
}

/// The result of a sweep: one [`ChaosOutcome`] per
/// `(scenario, class, seed)` triple, in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// All probe outcomes.
    pub outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// Outcomes the loop did not recover from.
    pub fn survivors(&self) -> Vec<&ChaosOutcome> {
        self.outcomes.iter().filter(|o| !o.recovered).collect()
    }

    /// `(recovered, total)` for one fault class across the whole sweep.
    pub fn recovery_rate(&self, class: FaultClass) -> (usize, usize) {
        let of_class: Vec<_> = self.outcomes.iter().filter(|o| o.class == class).collect();
        (of_class.iter().filter(|o| o.recovered).count(), of_class.len())
    }

    /// Plain-text recovery table by fault class (EXPERIMENTS.md shape).
    pub fn render_table(&self) -> String {
        let mut out = format!("{:<14} {:>10} {:>7} {:>9}\n", "fault class", "recovered", "total", "rate");
        for class in FaultClass::ALL {
            let (rec, total) = self.recovery_rate(class);
            if total == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<14} {:>10} {:>7} {:>8.0}%\n",
                class.name(),
                rec,
                total,
                rec as f64 / total as f64 * 100.0
            ));
        }
        out
    }
}

/// Sweep `classes × seeds` over each scenario, running the full repair
/// loop under every expanded schedule. Deterministic: outcomes come back
/// in `(scenario, class, seed)` iteration order and the same inputs give
/// the same report.
pub fn sweep(scenarios: &[Scenario], classes: &[FaultClass], seeds: &[u64]) -> ChaosReport {
    let mut outcomes = Vec::with_capacity(scenarios.len() * classes.len() * seeds.len());
    for scenario in scenarios {
        for &class in classes {
            for &seed in seeds {
                let plan = random_plan(class, seed, &scenario.topology);
                let mut outcome = run_under_plan(scenario, &plan);
                outcome.class = class;
                outcome.seed = seed;
                outcomes.push(outcome);
            }
        }
    }
    ChaosReport { outcomes }
}

/// Greedy delta debugging over a failing plan's components: drop each
/// link fault, each crash, and each control-channel knob in turn; keep
/// the removal whenever `fails` still holds without it. Loops to a
/// fixpoint so later removals can enable earlier ones. The result is the
/// smallest schedule (under this reduction order) that still breaks the
/// predicate — the form worth pinning as a regression scenario.
pub fn minimize_with(plan: &FaultPlan, fails: impl Fn(&FaultPlan) -> bool) -> FaultPlan {
    let mut current = plan.clone();
    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        let (links, crashes, ctrl) = (current.links.len(), current.crashes.len(), !current.ctrl.is_noop());
        let mut attempt = |edit: &dyn Fn(&mut FaultPlan)| {
            let mut candidate = current.clone();
            edit(&mut candidate);
            if candidate != current && fails(&candidate) {
                current = candidate;
                shrunk = true;
            }
        };
        // Link faults, then crashes, then control-channel knobs, one at a time.
        (0..links).rev().for_each(|i| attempt(&|p| _ = p.links.remove(i)));
        (0..crashes).rev().for_each(|i| attempt(&|p| _ = p.crashes.remove(i)));
        let zeroed: [fn(&mut CtrlFaults); 4] =
            [|c| c.drop_chance = 0.0, |c| c.dup_chance = 0.0, |c| c.delay_chance = 0.0, |c| c.reorder = false];
        zeroed.into_iter().filter(|_| ctrl).for_each(|zero| attempt(&|p| zero(&mut p.ctrl)));
    }
    current
}

/// [`minimize_with`] against the real repair loop: shrink `plan` while
/// the loop still fails to recover on `scenario`.
pub fn minimize(scenario: &Scenario, plan: &FaultPlan) -> FaultPlan {
    minimize_with(plan, |p| !run_under_plan(scenario, p).recovered)
}

/// A pinned chaos schedule: a scenario plus the exact plan, re-run by the
/// CI `chaos` job forever with its classified outcome frozen.
pub struct RegressionCase {
    /// Stable name (artifact key).
    pub name: &'static str,
    /// The scenario the schedule runs against.
    pub scenario: Scenario,
    /// The pinned schedule.
    pub plan: FaultPlan,
    /// The frozen classification: `true` pins "the loop recovers",
    /// `false` pins "the loop degrades cleanly to a classified
    /// non-recovery" (known-unrecoverable schedules — the loop must still
    /// complete without a panic and record why it produced nothing).
    pub expect_recovered: bool,
}

/// The pinned regression suite: the nastiest schedules the sweeps have
/// produced, minimized and frozen. The recoverable ones each provoked a
/// distinct degraded path while the subsystem was being built — a switch
/// dark through the whole diagnosis window, a flapping first-hop link, a
/// lossy reordering control channel — and the loop must keep recovering
/// from all of them. The unrecoverable ones are genuine survivors of the
/// 320-probe sweep, shrunk by [`minimize`]: kill the ingress link for the
/// whole workload and no packet ever enters the network, so there is no
/// provenance to repair from — the loop must say so instead of dying.
pub fn regression_cases() -> Vec<RegressionCase> {
    let q1 = Scenario::q1_copy_paste();
    let fig7 = Scenario::fig7_harmful_entry();
    let q2 = Scenario::q2_forwarding_error();
    let q4 = Scenario::q4_forgotten_packets();
    vec![
        RegressionCase {
            name: "q1-switch2-dark-through-diagnosis",
            scenario: q1.clone(),
            plan: FaultPlan {
                seed: 7,
                crashes: vec![SwitchCrash { switch: 2, at: 0, down_for: 400 }],
                ..FaultPlan::default()
            },
            expect_recovered: true,
        },
        RegressionCase {
            name: "q1-first-hop-flap",
            scenario: q1,
            plan: FaultPlan {
                seed: 11,
                links: vec![LinkFault::flap(
                    NodeRef::Switch(1),
                    NodeRef::Switch(2),
                    0,
                    300,
                    5,
                )],
                ..FaultPlan::default()
            },
            expect_recovered: true,
        },
        RegressionCase {
            name: "fig7-lossy-reordering-ctrl",
            scenario: fig7,
            plan: FaultPlan {
                seed: 13,
                ctrl: CtrlFaults {
                    drop_chance: 0.5,
                    dup_chance: 0.2,
                    delay_chance: 0.3,
                    delay_min: 1,
                    delay_max: 9,
                    reorder: true,
                },
                ..FaultPlan::default()
            },
            expect_recovered: true,
        },
        RegressionCase {
            name: "q4-double-crash",
            scenario: q4.clone(),
            plan: FaultPlan {
                seed: 17,
                crashes: vec![
                    SwitchCrash { switch: 1, at: 10, down_for: 60 },
                    SwitchCrash { switch: 2, at: 80, down_for: 60 },
                ],
                ..FaultPlan::default()
            },
            expect_recovered: true,
        },
        // Genuine sweep survivors (minimized): with the INTERNET ingress
        // link dead for the full workload, no packet ever reaches a
        // switch, no PacketIn reaches the controller, and the provenance
        // forest is empty — there is nothing to diagnose. Sweep origin:
        // link-outage seed 4.
        RegressionCase {
            name: "q2-ingress-dead-whole-run",
            scenario: q2.clone(),
            plan: FaultPlan {
                seed: 4,
                links: vec![LinkFault::down(NodeRef::Switch(1), NodeRef::Host(100), 0, 146)],
                ..FaultPlan::default()
            },
            expect_recovered: false,
        },
        RegressionCase {
            name: "q4-ingress-dead-whole-run",
            scenario: q4,
            plan: FaultPlan {
                seed: 4,
                links: vec![LinkFault::down(NodeRef::Switch(1), NodeRef::Host(100), 0, 146)],
                ..FaultPlan::default()
            },
            expect_recovered: false,
        },
        // Sweep survivor (minimized from ctrl-chaos seed 1): a control
        // channel dropping ~a third of replies and delaying a sixth
        // starves Q2's diagnosis of the specific PacketIn its symptom
        // query needs. The loop must classify this, not die on it.
        RegressionCase {
            name: "q2-lossy-delaying-ctrl",
            scenario: q2,
            plan: FaultPlan {
                seed: 1,
                ctrl: CtrlFaults {
                    drop_chance: 0.36,
                    dup_chance: 0.06,
                    delay_chance: 0.17,
                    delay_min: 1,
                    delay_max: 8,
                    reorder: false,
                },
                ..FaultPlan::default()
            },
            expect_recovered: false,
        },
    ]
}

// ---------------------------------------------------------------------------
// Kill-and-restart: process death, injected at the storage layer
// ---------------------------------------------------------------------------

/// One WAL engine run, captured: the log it wrote — the raw material the
/// crash points cut into — and its own state at the end, which a recovery
/// of the whole log must equal.
#[derive(Debug, Clone)]
pub struct WalCapture {
    /// Scenario id the engine ran.
    pub scenario: String,
    /// The program the engine ran.
    pub program: Arc<Program>,
    /// The options it ran with (recording on), but in memory only.
    pub opts: EngineOptions,
    /// The raw `wal.log` bytes, exactly as the engine left them.
    pub wal_bytes: Vec<u8>,
    /// The records framed inside `wal_bytes`, oldest first: the header,
    /// then one per input.
    pub records: Vec<Vec<u8>>,
    /// The live engine's [`mpr_runtime::Store::dump`].
    pub live_dump: Vec<(Tuple, u64, u64)>,
    /// The live engine's execution log.
    pub live_log: ExecLog,
}

/// Hands each capture / crash probe its own scratch directory, so
/// concurrent test threads never share a log.
static KILL_SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

fn kill_scratch_dir(tag: &str) -> PathBuf {
    let seq = KILL_SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mpr-kill-{}-{tag}-{seq}", std::process::id()))
}

/// Run `scenario` with its engine logging inputs to a WAL and recording
/// provenance, and capture the log and the engine's final state: one
/// [`mpr_backtest::replay::drive`] of the program over the workload, which
/// is the observation run and equally a backtest replay of the buggy
/// program. `max_injections` truncates the workload (0 = all of it) so
/// sweeps over many crash points stay cheap.
pub fn capture_wal(
    scenario: &Scenario,
    opts: &EngineOptions,
    max_injections: usize,
) -> Result<WalCapture, String> {
    let scratch = kill_scratch_dir("capture");
    let opts = EngineOptions { record_events: true, durability: Durability::Mem, ..opts.clone() };
    let workload: Vec<_> = if max_injections == 0 {
        scenario.workload.clone()
    } else {
        scenario.workload.iter().take(max_injections).cloned().collect()
    };
    let setup = BacktestSetup {
        topology: scenario.topology.clone(),
        codec: scenario.codec.clone(),
        seeds: scenario.seeds.clone(),
        workload: Arc::new(workload),
        config: scenario.sim.clone(),
        proactive_routes: false,
        engine: EngineOptions { durability: Durability::Wal(WalOptions::new(&scratch)), ..opts.clone() },
    };
    let capture = drive(&setup, Arc::clone(&scenario.program), true, &[]).and_then(|sim| {
        let engine = sim.controller().engine();
        if let Some(why) = engine.durability_degraded() {
            return Err(format!("durability degraded during capture: {why}"));
        }
        let dir = engine.wal_dir().ok_or("the capture engine has no WAL")?;
        let wal_bytes = std::fs::read(dir.join("wal.log")).map_err(|e| format!("read wal.log: {e}"))?;
        let mut backend = WalBackend::open(WalConfig::new(dir)).map_err(|e| format!("reopen capture: {e}"))?;
        let recovered = backend.recover().map_err(|e| format!("recover capture: {e}"))?;
        if !recovered.status.is_clean() {
            return Err(format!("capture did not reopen clean: {:?}", recovered.status));
        }
        Ok(WalCapture {
            scenario: scenario.id.clone(),
            program: Arc::clone(&scenario.program),
            opts,
            wal_bytes,
            records: recovered.records,
            live_dump: engine.store().dump(),
            live_log: engine.log().clone(),
        })
    });
    let _ = std::fs::remove_dir_all(&scratch);
    capture
}

/// One crash point's verdict: the process died after `cut` bytes of the
/// WAL reached disk; the restart re-ran `inputs` input records and either
/// matched the oracle or didn't.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillOutcome {
    /// Scenario id.
    pub scenario: String,
    /// Bytes of the WAL that survived the crash.
    pub cut: u64,
    /// Full length of the captured WAL.
    pub wal_len: u64,
    /// Input records the restart re-ran.
    pub inputs: usize,
    /// The restart reported [`mpr_storage::Recovery::Clean`] (true exactly
    /// when the cut landed on a record-frame boundary).
    pub clean: bool,
    /// The recovered engine's store and execution log equal those of an
    /// in-memory engine fed the surviving whole input records — and, for
    /// the full-length cut, the live capture engine's — the property every
    /// crash point must hold.
    pub prefix_consistent: bool,
    /// Recovery error or escaped panic, when something went wrong.
    pub error: Option<String>,
}

/// Byte offsets (within `wal_len`) at which whole record frames end —
/// i.e. the cuts a crash can land on and still recover `Clean`.
pub fn frame_boundaries(records: &[Vec<u8>]) -> Vec<u64> {
    let mut at = 0u64;
    let mut bounds = vec![0u64];
    for r in records {
        at += 8 + r.len() as u64; // [len u32][crc32 u32][payload]
        bounds.push(at);
    }
    bounds
}

/// Recover an engine from the first `cut` bytes of a captured WAL, as a
/// restart after a crash at that exact byte would. Everything happens in
/// a throwaway directory.
pub fn recover_prefix(capture: &WalCapture, cut: u64) -> Result<(Engine, EngineRecovery), String> {
    let cut = (cut.min(capture.wal_bytes.len() as u64)) as usize;
    let dir = kill_scratch_dir("crash");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create crash dir: {e}"))?;
    std::fs::write(dir.join("wal.log"), &capture.wal_bytes[..cut])
        .map_err(|e| format!("write truncated wal: {e}"))?;
    let result = Engine::recover(Arc::clone(&capture.program), capture.opts.clone(), &dir).map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// An in-memory engine that re-ran `records`, a header and the input
/// records after it, in order: the oracle a restart must equal.
pub fn fed_engine(capture: &WalCapture, records: &[Vec<u8>]) -> Result<Engine, String> {
    let mut engine =
        Engine::shared(Arc::clone(&capture.program), capture.opts.clone()).map_err(|e| e.to_string())?;
    engine.rerun(records).map_err(|e| e.to_string())?;
    Ok(engine)
}

/// Kill the process at byte `cut` of the captured WAL and restart: write
/// the surviving prefix to a fresh directory, [`Engine::recover`] from
/// it, and compare the recovered engine's store and execution log against
/// an in-memory engine fed exactly the whole records the cut preserved —
/// and, when nothing was cut, against the live capture engine. Panics
/// anywhere inside recovery are contained and reported — a crash point
/// must never take the harness down.
pub fn crash_at(capture: &WalCapture, cut: u64) -> KillOutcome {
    let wal_len = capture.wal_bytes.len() as u64;
    let cut = cut.min(wal_len);
    let whole = frame_boundaries(&capture.records).iter().filter(|&&b| b <= cut).count() - 1;
    let probe = catch_unwind(AssertUnwindSafe(|| -> Result<(bool, usize, bool), String> {
        let (engine, recovery) = recover_prefix(capture, cut)?;
        let oracle = fed_engine(capture, &capture.records[..whole])?;
        let dump = engine.store().dump();
        let consistent = recovery.inputs == whole.saturating_sub(1)
            && dump == oracle.store().dump()
            && engine.log() == oracle.log()
            && (cut < wal_len || (dump == capture.live_dump && *engine.log() == capture.live_log));
        Ok((recovery.status.is_clean(), recovery.inputs, consistent))
    }));
    let base = KillOutcome {
        scenario: capture.scenario.clone(),
        cut,
        wal_len,
        inputs: 0,
        clean: false,
        prefix_consistent: false,
        error: None,
    };
    match probe {
        Ok(Ok((clean, inputs, prefix_consistent))) => KillOutcome { inputs, clean, prefix_consistent, ..base },
        Ok(Err(e)) => KillOutcome { error: Some(format!("recovery error: {e}")), ..base },
        Err(payload) => KillOutcome { error: Some(format!("escaped panic: {}", panic_message(payload))), ..base },
    }
}

/// The result of a kill sweep: one [`KillOutcome`] per crash point, in
/// sweep order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillReport {
    /// All crash-point outcomes.
    pub outcomes: Vec<KillOutcome>,
}

impl KillReport {
    /// Crash points that failed: recovery errored, panicked, or produced a
    /// state diverging from the surviving-prefix oracle.
    pub fn failures(&self) -> Vec<&KillOutcome> {
        self.outcomes.iter().filter(|o| o.error.is_some() || !o.prefix_consistent).collect()
    }

    /// Plain-text summary by scenario (EXPERIMENTS.md shape).
    pub fn render_table(&self) -> String {
        let mut rows: std::collections::BTreeMap<&str, (usize, usize)> = std::collections::BTreeMap::new();
        for o in &self.outcomes {
            let row = rows.entry(&o.scenario).or_default();
            row.1 += 1;
            if o.error.is_none() && o.prefix_consistent {
                row.0 += 1;
            }
        }
        let mut out = format!("{:<10} {:>10} {:>7}\n", "scenario", "consistent", "total");
        for (scenario, (ok, total)) in rows {
            out.push_str(&format!("{scenario:<10} {ok:>10} {total:>7}\n"));
        }
        out
    }
}

/// Sweep crash points over every scenario: capture one WAL per scenario,
/// then kill-and-restart at the two endpoints (nothing persisted /
/// everything persisted) and at `cuts_per_scenario` further byte offsets,
/// drawn at random and each probed once (fewer when the log has fewer
/// bytes). Deterministic for fixed inputs. Errors if a capture run itself
/// fails — the harness refuses to sweep a log it couldn't verify.
pub fn kill_sweep(
    scenarios: &[Scenario],
    opts: &EngineOptions,
    cuts_per_scenario: usize,
    seed: u64,
    max_injections: usize,
) -> Result<KillReport, String> {
    let mut outcomes = Vec::new();
    for scenario in scenarios {
        let capture = capture_wal(scenario, opts, max_injections)
            .map_err(|e| format!("{} capture: {e}", scenario.id))?;
        let len = capture.wal_bytes.len() as u64;
        // Seeded independently of `random_plan`, so the two sweeps don't
        // correlate.
        let mut rng = StdRng::seed_from_u64(seed ^ len ^ 0x517c_c1b7_2722_0a95);
        let wanted = (cuts_per_scenario as u64 + 2).min(len + 1) as usize;
        let mut cuts = vec![0u64, len];
        cuts.dedup();
        while cuts.len() < wanted {
            let cut = rng.gen_range(0..=len);
            if !cuts.contains(&cut) {
                cuts.push(cut);
            }
        }
        outcomes.extend(cuts.into_iter().map(|cut| crash_at(&capture, cut)));
    }
    Ok(KillReport { outcomes })
}

/// Restart *and resume*: recover the engine from the surviving prefix of
/// a crashed run, fold its base state back into the scenario's seeds, and
/// drive the full diagnose → repair → backtest loop from there. Only `State`-persistence tuples carry over — event tuples are
/// consumed by design and a restart must not replay them as fresh
/// stimuli. This is the end-to-end property the kill-and-restart harness
/// pins: a kill at any WAL offset leaves the loop able to converge again.
pub fn restart_repair(
    scenario: &Scenario,
    capture: &WalCapture,
    cut: u64,
) -> Result<RepairReport, String> {
    let (engine, _recovery) = recover_prefix(capture, cut)?;
    let mut resumed = scenario.clone();
    for tuple in engine.store().base_tuples() {
        let is_state = scenario
            .program
            .catalog
            .get(&tuple.table)
            .is_some_and(|s| s.persistence == Persistence::State);
        if is_state && !resumed.seeds.contains(&tuple) {
            resumed.seeds.push(tuple);
        }
    }
    try_repair_scenario(&resumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_sdn::topology::fig1;

    #[test]
    fn plans_are_deterministic_per_class_and_seed() {
        let topo = fig1();
        for class in FaultClass::ALL {
            for seed in 0..16 {
                assert_eq!(
                    random_plan(class, seed, &topo),
                    random_plan(class, seed, &topo),
                    "{} seed {seed} not deterministic",
                    class.name()
                );
            }
        }
    }

    #[test]
    fn plans_differ_across_seeds() {
        let topo = fig1();
        let distinct: std::collections::BTreeSet<String> = (0..8)
            .map(|s| format!("{:?}", random_plan(FaultClass::SwitchCrash, s, &topo)))
            .collect();
        assert!(distinct.len() > 4, "seeds barely vary the plan: {}", distinct.len());
    }

    #[test]
    fn every_class_produces_a_nonempty_plan() {
        let topo = fig1();
        for class in FaultClass::ALL {
            let plan = random_plan(class, 3, &topo);
            assert!(!plan.is_empty(), "{} expanded to an empty plan", class.name());
        }
    }

    #[test]
    fn all_links_enumerates_fig1_in_sorted_order() {
        let links = all_links(&fig1());
        // fig1: 3 switch-switch + 4 host attachments = 7 undirected links.
        assert_eq!(links.len(), 7);
        let mut sorted = links.clone();
        sorted.sort();
        assert_eq!(links, sorted);
    }

    #[test]
    fn minimize_with_shrinks_to_the_failing_core() {
        // Synthetic predicate: the failure needs the switch-2 crash, and
        // only that. Everything else must be shaved off.
        let topo = fig1();
        let mut plan = random_plan(FaultClass::CtrlChaos, 5, &topo);
        plan.crashes.push(SwitchCrash { switch: 2, at: 3, down_for: 50 });
        plan.crashes.push(SwitchCrash { switch: 3, at: 60, down_for: 20 });
        plan.links.push(LinkFault::down(NodeRef::Switch(1), NodeRef::Switch(2), 5, 25));
        let fails = |p: &FaultPlan| p.crashes.iter().any(|c| c.switch == 2);
        let min = minimize_with(&plan, fails);
        assert_eq!(min.crashes, vec![SwitchCrash { switch: 2, at: 3, down_for: 50 }]);
        assert!(min.links.is_empty());
        assert!(min.ctrl.is_noop());
    }
}
