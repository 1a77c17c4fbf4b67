//! Fig. 9b: time needed to jointly backtest the first k repair candidates
//! from Q1 — sequential vs multi-query optimization (§4.4). (Paper: ~120 s
//! sequential vs ~40 s MQO for all nine; the shape is MQO's growing gap.)

use mpr_backtest::mqo::mqo_replay;
use mpr_backtest::replay::{replay, BacktestSetup};
use mpr_bench::{header, host_fingerprint, write_artifact};
use mpr_core::explore::generate_missing;
use mpr_core::repair::Repair;
use mpr_core::scenarios::{Scenario, Symptom};
use std::time::Instant;

fn main() {
    let scenario = Scenario::q1_copy_paste();
    let dbg = mpr_core::debugger::Debugger::for_scenario(&scenario);
    let (world, _baseline, _rt, _ht) = dbg.observe().expect("scenario runs");
    let Symptom::Missing(goal) = &scenario.symptom else { unreachable!() };
    let (candidates, _) = generate_missing(&world, goal);
    // Patch-style candidates only (the joint evaluator shares programs).
    let programs: Vec<_> = candidates
        .iter()
        .filter_map(|c| match &c.repair {
            Repair::Patch(p) => p.apply(&scenario.program).ok(),
            _ => None,
        })
        .collect();
    let setup = BacktestSetup {
        topology: scenario.topology.clone(),
        codec: scenario.codec.clone(),
        seeds: scenario.seeds.clone(),
        workload: scenario.workload.clone().into(),
        config: scenario.sim.clone(),
        proactive_routes: false,
        engine: mpr_runtime::Options::default(),
    };
    header("Fig. 9b: backtesting the first k Q1 candidates (milliseconds)");
    println!("{:>3} {:>14} {:>14} {:>8}", "k", "Sequential", "MQO", "Speedup");
    let mut series = Vec::new();
    for k in 1..=programs.len() {
        let subset = &programs[..k];
        // Best of three: single measurements are jittery at ms scale.
        let mut seq = std::time::Duration::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            for p in subset {
                let _ = replay(&setup, p).expect("sequential replay");
            }
            seq = seq.min(t0.elapsed());
        }
        let mut joint = std::time::Duration::MAX;
        let mut outs = Vec::new();
        for _ in 0..3 {
            let t1 = Instant::now();
            outs = mqo_replay(&setup, &scenario.program, subset, &[]);
            joint = joint.min(t1.elapsed());
        }
        assert_eq!(outs.len(), k);
        let speedup = seq.as_secs_f64() / joint.as_secs_f64().max(1e-9);
        println!(
            "{:>3} {:>14.2} {:>14.2} {:>7.2}x",
            k,
            seq.as_secs_f64() * 1e3,
            joint.as_secs_f64() * 1e3,
            speedup
        );
        series.push(serde_json::json!({
            "k": k,
            "sequential_ms": seq.as_secs_f64() * 1e3,
            "mqo_ms": joint.as_secs_f64() * 1e3,
            "speedup": speedup,
        }));
    }
    write_artifact("fig9b", &serde_json::json!({ "host": host_fingerprint(), "series": series }));
    println!("\npaper shape: MQO grows much slower with k than sequential backtesting");
}
