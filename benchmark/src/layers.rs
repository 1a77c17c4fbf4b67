//! Per-layer metrics of a traced block: span statistics from the staged
//! drive, counts from the layers' return values, and fixed-size probes
//! that call one layer's public entry points directly.
//!
//! Layer names are the crate names. A metric is per operation: for
//! `q-suite`, whose operation is a round over eight scenarios, times and
//! counts are summed over the scenarios and per-call figures averaged.

use crate::block::{out_dir, BlockResult};
use crate::repair::StagedCounts;
use crate::stats::{median, quantile};
use crate::trace::{self_times_ns, Tracer};
use crate::workloads::{
    pass, PassKind, RepairInputs, ReplyDigest, StreamInputs, Workload, CHUNK, PACKETS_PER_PASS,
};
use mpr_core::debugger::Debugger;
use mpr_core::scenarios::{Scenario, Symptom};
use mpr_ndlog::parse_program;
use mpr_provenance::graph::{explain_absent_with, ExplainOptions};
use mpr_runtime::Engine;
use mpr_sdn::controller::{Controller, NdlogController, NullController};
use mpr_sdn::sim::Simulation;
use mpr_storage::{StorageBackend, WalBackend, WalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

/// Repetitions of a millisecond-scale probe; the median is reported.
const PROBE_REPS: usize = 5;
/// Hosts the routing probe queries.
const ROUTE_HOSTS: usize = 32;
/// Records the WAL probe appends, and their size.
const WAL_PROBE_RECORDS: usize = 100_000;
const WAL_PROBE_RECORD_BYTES: usize = 120;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall-clock (ms) of `reps` calls of `f`.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms_since(t)
        })
        .collect();
    median(&samples)
}

type Layers = Vec<(String, f64)>;

fn put(out: &mut Layers, name: &str, value: f64) {
    out.push((name.to_string(), value));
}

/// Layer metrics of a repair workload.
pub fn repair_layers(
    workload: Workload,
    inputs: &RepairInputs,
    untraced_ms: &[f64],
    per_scenario_ms: &[Vec<f64>],
    tracer: &Tracer,
    staged: &[StagedCounts],
) -> Layers {
    let mut out = Layers::new();
    let n = inputs.scenarios.len();

    // Demoted end-to-end metrics, from the untraced third of the block.
    put(&mut out, "turnaround_p50_ms", quantile(untraced_ms, 0.50));
    put(&mut out, "turnaround_p90_ms", quantile(untraced_ms, 0.90));
    let busy_s = untraced_ms.iter().sum::<f64>() / 1e3;
    put(
        &mut out,
        "repairs_per_s",
        (untraced_ms.len() * workload.repairs_per_op()) as f64 / busy_s,
    );
    put(&mut out, "bench.samples", untraced_ms.len() as f64);
    if workload == Workload::QSuite {
        for (s, ms) in inputs.scenarios.iter().zip(per_scenario_ms) {
            put(&mut out, &format!("core.repair_ms.{}", s.id), median(ms));
        }
    }

    // Spans. Operation k (1-based) ran scenario (k-1) mod n.
    let selfs = self_times_ns(tracer.spans());
    let per_op = |name: &str, self_time: bool| -> f64 {
        let mut by_scenario: Vec<std::collections::BTreeMap<u64, f64>> =
            vec![Default::default(); n];
        for (s, self_ns) in tracer
            .spans()
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
        {
            let ns = if self_time { *self_ns } else { s.duration_ns() };
            *by_scenario[(s.op as usize - 1) % n]
                .entry(s.op)
                .or_default() += ns as f64 / 1e6;
        }
        by_scenario
            .iter()
            .map(|ops| median(&ops.values().copied().collect::<Vec<_>>()))
            .sum()
    };
    let per_call = |name: &str| median(&tracer.durations_ms(name));
    put(&mut out, "core.observe_ms", per_op("core.observe", false));
    put(&mut out, "core.explore_ms", per_op("core.explore", false));
    put(&mut out, "core.unattributed_ms", per_op("staged", true));
    let (mqo, seq) = (
        per_op("backtest.mqo_replay", false),
        per_op("backtest.replay_candidates", false),
    );
    put(&mut out, "backtest.mqo_ms", mqo);
    put(&mut out, "backtest.seq_ms", seq);
    put(
        &mut out,
        "backtest.mqo_speedup",
        if mqo > 0.0 { seq / mqo } else { 0.0 },
    );
    put(
        &mut out,
        "backtest.replay_one_ms",
        per_call("backtest.replay"),
    );
    put(&mut out, "backtest.ks_us", per_call("backtest.ks") * 1e3);
    put(
        &mut out,
        "ndlog.patch_apply_us",
        per_call("ndlog.patch_apply") * 1e3,
    );
    let traced = per_op("whole", false);
    let untraced: f64 = per_scenario_ms.iter().map(|ms| median(ms)).sum();
    put(
        &mut out,
        "bench.trace_overhead_pct",
        (traced / untraced - 1.0) * 100.0,
    );

    // Counts the layers returned.
    let sum = |f: &dyn Fn(&StagedCounts) -> f64| staged.iter().map(f).sum::<f64>();
    put(&mut out, "core.candidates", sum(&|c| c.candidates as f64));
    put(&mut out, "core.trees", sum(&|c| c.explore.trees as f64));
    put(
        &mut out,
        "solver.pools",
        sum(&|c| c.explore.pools_solved as f64),
    );
    put(
        &mut out,
        "solver.solve_ms",
        sum(&|c| c.explore.solver_ns as f64 / 1e6),
    );

    // Probes, per scenario.
    put(&mut out, "sdn.topology_build_ms", inputs.topology_build_ms);
    let probes: Vec<ScenarioProbe> = inputs.scenarios.iter().map(probe_scenario).collect();
    let total = |f: &dyn Fn(&ScenarioProbe) -> f64| probes.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&ScenarioProbe) -> f64| total(f) / n as f64;
    put(&mut out, "sdn.sim_new_ms", total(&|p| p.sim_new_ms));
    put(&mut out, "sdn.sim_ms", total(&|p| p.sim_ms));
    put(&mut out, "sdn.events", total(&|p| p.events));
    put(
        &mut out,
        "sdn.ns_per_event",
        total(&|p| p.sim_ms) * 1e6 / total(&|p| p.events),
    );
    put(&mut out, "sdn.flow_lookup_ns", mean(&|p| p.flow_lookup_ns));
    put(&mut out, "sdn.routes_cold_ms", mean(&|p| p.routes_cold_ms));
    put(&mut out, "sdn.routes_warm_ns", mean(&|p| p.routes_warm_ns));
    put(&mut out, "runtime.compile_ms", total(&|p| p.compile_ms));
    put(&mut out, "runtime.fixpoint_ms", total(&|p| p.fixpoint_ms));
    put(&mut out, "runtime.derivations", total(&|p| p.derivations));
    put(&mut out, "runtime.tuples", total(&|p| p.tuples));
    put(
        &mut out,
        "runtime.index_entries",
        total(&|p| p.index_entries),
    );
    put(&mut out, "ndlog.parse_ms", total(&|p| p.parse_ms));
    put(&mut out, "ndlog.rules", total(&|p| p.rules));
    put(&mut out, "provenance.explain_ms", total(&|p| p.explain_ms));
    put(
        &mut out,
        "provenance.tree_vertices",
        total(&|p| p.tree_vertices),
    );
    if workload == Workload::QSuite {
        let compile = || {
            (
                mpr_langs::trema::q1_trema().compile(),
                mpr_langs::pyretic::q1_pyretic().compile(),
            )
        };
        put(&mut out, "langs.compile_ms", time_ms(PROBE_REPS, compile));
    }
    out
}

/// What the direct probes read off one scenario.
#[derive(Default)]
struct ScenarioProbe {
    sim_new_ms: f64,
    sim_ms: f64,
    events: f64,
    flow_lookup_ns: f64,
    routes_cold_ms: f64,
    routes_warm_ns: f64,
    compile_ms: f64,
    fixpoint_ms: f64,
    derivations: f64,
    tuples: f64,
    index_entries: f64,
    parse_ms: f64,
    rules: f64,
    explain_ms: f64,
    tree_vertices: f64,
}

fn probe_scenario(s: &Scenario) -> ScenarioProbe {
    // mpr_sdn: the simulator with no controller behind it, no proactive
    // routes — every packet punts at its ingress switch and is dropped.
    let sim_new_ms = time_ms(PROBE_REPS, || {
        Simulation::new(s.topology.clone(), NullController, s.sim.clone())
    });
    let mut p = ScenarioProbe {
        sim_new_ms,
        rules: s.program.rules.len() as f64,
        ..ScenarioProbe::default()
    };
    let mut runs = Vec::new();
    for _ in 0..3 {
        let mut sim = Simulation::new(s.topology.clone(), NullController, s.sim.clone());
        let t = Instant::now();
        p.events = 0.0;
        for (src, pkt) in &s.workload {
            sim.inject(*src, pkt.clone());
            p.events += sim.run() as f64;
        }
        runs.push(ms_since(t));
    }
    p.sim_ms = median(&runs);

    // The scenario's own controller: flow tables as the observe stage
    // leaves them, and the execution log provenance reads.
    let mut ctrl = NdlogController::new(s.program.clone(), s.codec.clone())
        .expect("scenario program compiles");
    ctrl.seed(s.seeds.clone()).expect("scenario seeds insert");
    let mut sim = Simulation::new(s.topology.clone(), ctrl, s.sim.clone());
    for (src, pkt) in &s.workload {
        sim.inject(*src, pkt.clone());
        sim.run();
    }
    let lookups: Vec<_> = s
        .workload
        .iter()
        .filter_map(|(src, pkt)| {
            let (sw, port) = s.topology.host_attachment(*src)?;
            Some((sim.tables.get(&sw)?, pkt, port))
        })
        .collect();
    let rounds = 200_000 / lookups.len().max(1) + 1;
    let t = Instant::now();
    for _ in 0..rounds {
        for (table, pkt, port) in &lookups {
            std::hint::black_box(table.lookup(pkt, *port));
        }
    }
    p.flow_lookup_ns = ms_since(t) * 1e6 / (rounds * lookups.len().max(1)) as f64;

    let mut rng = StdRng::seed_from_u64(s.topology.hosts.len() as u64);
    let all_hosts: Vec<i64> = s.topology.hosts.iter().copied().collect();
    let hosts: Vec<i64> = (0..ROUTE_HOSTS)
        .map(|_| all_hosts[rng.gen_range(0..all_hosts.len())])
        .collect();
    let cold: Vec<f64> = hosts
        .iter()
        .map(|h| time_ms(1, || s.topology.routes_to_uncached(*h)))
        .collect();
    p.routes_cold_ms = median(&cold);
    for h in &hosts {
        s.topology.routes_to(*h);
    }
    let t = Instant::now();
    for _ in 0..1_000 {
        for h in &hosts {
            std::hint::black_box(s.topology.routes_to(*h));
        }
    }
    p.routes_warm_ns = ms_since(t) * 1e6 / (1_000 * hosts.len()) as f64;

    // mpr_runtime: compile, then one fixpoint over what observe distilled.
    p.compile_ms = time_ms(PROBE_REPS, || Engine::new(&s.program));
    if let Ok((world, ..)) = Debugger::for_scenario(s).observe() {
        let mut engine = Engine::new(&s.program).expect("scenario program compiles");
        let t = Instant::now();
        let _ = engine.insert_all(s.seeds.clone());
        for trigger in &world.triggers {
            let _ = engine.insert(trigger.clone());
        }
        p.fixpoint_ms = ms_since(t);
        p.derivations = engine.total_derivations() as f64;
        p.tuples = engine.tuple_count() as f64;
        p.index_entries = engine.index_entries() as f64;
    }

    // mpr_ndlog, mpr_provenance.
    let text = s.program.to_string();
    p.parse_ms = time_ms(PROBE_REPS, || parse_program("probe", &text));
    if let Symptom::Missing(goal) = &s.symptom {
        let ctrl = sim.controller();
        let t = Instant::now();
        let tree = explain_absent_with(
            ctrl.exec_log(),
            &s.program,
            goal,
            ctrl.engine().now(),
            ExplainOptions::default(),
        );
        p.explain_ms = ms_since(t);
        p.tree_vertices = tree.size() as f64;
    }
    p
}

/// Layer metrics of `packetin-stream`. `mem_ms` / `wal_ms` are the
/// per-packet chunk samples of the block's alternating passes.
pub fn stream_layers(
    inputs: &StreamInputs,
    mem_ms: &[f64],
    wal_ms: &[f64],
    history_mb: f64,
    wal_dir: &Path,
    r: &mut BlockResult,
) -> Layers {
    let mut out = Layers::new();
    let chunks_per_pass = PACKETS_PER_PASS / CHUNK;
    let per_s = |samples: &[f64]| {
        let passes: Vec<f64> = samples
            .chunks_exact(chunks_per_pass)
            .map(|pass| PACKETS_PER_PASS as f64 / (pass.iter().sum::<f64>() * CHUNK as f64 / 1e3))
            .collect();
        median(&passes)
    };
    put(&mut out, "packetin_per_s", per_s(mem_ms));
    put(&mut out, "packetin_wal_per_s", per_s(wal_ms));
    put(&mut out, "packetin_p50_us", quantile(mem_ms, 0.50) * 1e3);
    put(&mut out, "turnaround_p50_ms", quantile(mem_ms, 0.50));
    put(&mut out, "turnaround_p90_ms", quantile(mem_ms, 0.90));
    put(&mut out, "bench.samples", mem_ms.len() as f64);
    put(&mut out, "trace.generate_ms", inputs.generate_ms);

    // mpr_storage: what journalling costs the stream, and the journal alone.
    let floor = |samples: &[f64]| quantile(samples, crate::metrics::TURNAROUND_QUANTILE);
    put(&mut out, "storage.wal_ratio", floor(wal_ms) / floor(mem_ms));
    // Whole bytes per pass first: the figure must not depend on how many
    // `Wal` passes fitted into the block.
    let wal_passes = (wal_ms.len() / chunks_per_pass).max(1) as u64;
    put(
        &mut out,
        "storage.journal_bytes_per_packetin",
        (dir_bytes(wal_dir) / wal_passes) as f64 / PACKETS_PER_PASS as f64,
    );
    match wal_probe(&out_dir().join(format!("wal-probe-{}", std::process::id()))) {
        Ok((append_mb_s, recover_ms)) => {
            put(&mut out, "storage.append_mb_s", append_mb_s);
            put(&mut out, "storage.recover_ms", recover_ms);
        }
        Err(e) => r.fail(1, format!("WAL probe: {e}")),
    }

    // mpr_runtime: the same stream with recording off; then with a span
    // per packet-in, for the per-packet distribution and the trace file.
    let mut digests: Vec<ReplyDigest> = Vec::new();
    let mut ctrl = inputs.controller(PassKind::NoRecord, wal_dir);
    let (bare_ms, digest) = pass(&mut ctrl, &inputs.msgs);
    drop(ctrl);
    digests.push(digest);
    put(
        &mut out,
        "runtime.record_overhead_pct",
        (floor(mem_ms) / floor(&bare_ms) - 1.0) * 100.0,
    );

    put(
        &mut out,
        "runtime.log_bytes_per_packetin",
        history_mb * 1048576.0 / inputs.msgs.len() as f64,
    );
    let mut ctrl = inputs.controller(PassKind::Mem, wal_dir);
    let mut tracer = Tracer::new();
    tracer.next_op();
    let root = tracer.enter("op:packetin-pass");
    let mut replies = Vec::new();
    let mut digest = ReplyDigest::default();
    for msg in &inputs.msgs {
        replies.clear();
        let id = tracer.enter("runtime.on_packet_in");
        ctrl.on_packet_in(msg, &mut replies);
        tracer.exit(id);
        digest.absorb(&replies);
    }
    let pass_ms = tracer.exit(root) as f64 / 1e6;
    digests.push(digest);
    drop(ctrl);
    let per_packet_ms = tracer.durations_ms("runtime.on_packet_in");
    put(
        &mut out,
        "runtime.packetin_us",
        quantile(&per_packet_ms, 0.50) * 1e3,
    );
    put(
        &mut out,
        "runtime.packetin_p99_us",
        quantile(&per_packet_ms, 0.99) * 1e3,
    );
    let traced_ms = pass_ms / inputs.msgs.len() as f64;
    put(
        &mut out,
        "bench.trace_overhead_pct",
        (traced_ms / quantile(mem_ms, 0.50) - 1.0) * 100.0,
    );

    r.attempted += 2 * inputs.msgs.len() as u64;
    let expected = inputs.golden;
    for d in digests {
        if expected.is_some_and(|g| g != d) || d.messages == 0 {
            r.fail(
                inputs.msgs.len() as u64,
                format!("probe pass: replies {d:?}, expected {expected:?}"),
            );
        }
    }
    let path = out_dir().join(format!("trace-{}.jsonl", Workload::PacketinStream.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        r.fail(1, format!("write {}: {e}", path.display()));
    }
    out
}

/// Append, flush and recover `WAL_PROBE_RECORDS` records through
/// `WalBackend` (fsync off, as everywhere in this benchmark).
fn wal_probe(dir: &Path) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let record = [0xA5u8; WAL_PROBE_RECORD_BYTES];
    let mut wal = WalBackend::open(WalConfig::new(dir)).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for _ in 0..WAL_PROBE_RECORDS {
        wal.append(&record).map_err(|e| e.to_string())?;
    }
    wal.flush().map_err(|e| e.to_string())?;
    let append_s = t.elapsed().as_secs_f64();
    drop(wal);
    let t = Instant::now();
    let mut wal = WalBackend::open(WalConfig::new(dir)).map_err(|e| e.to_string())?;
    let recovered = wal.recover().map_err(|e| e.to_string())?;
    let recover_ms = ms_since(t);
    let _ = std::fs::remove_dir_all(dir);
    if recovered.records.len() != WAL_PROBE_RECORDS {
        return Err(format!(
            "recovered {} of {WAL_PROBE_RECORDS} records",
            recovered.records.len()
        ));
    }
    Ok((
        (WAL_PROBE_RECORDS * WAL_PROBE_RECORD_BYTES) as f64 / 1e6 / append_s,
        recover_ms,
    ))
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
