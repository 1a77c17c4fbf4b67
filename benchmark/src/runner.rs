//! The parent process: runs each block as a fresh child with `MPR_*`
//! scrubbed, interleaves the workloads' blocks, reduces the blocks to the
//! metrics, prints them, and writes the result file `compare` reads.
//!
//! The load is a closed loop with one client: blocks run one at a time and
//! a block issues its next operation when the previous one returns. The
//! only other threads are the program's own backtest pool.

use crate::block::{BlockResult, BlockSpec};
use crate::metrics::{END_TO_END, PER_LAYER, TURNAROUND_QUANTILE};
use crate::stats::{highest_percentile, median, quantile, samples_beyond, spread};
use crate::workloads::Workload;
use serde_json::{json, Value};
use std::ffi::OsString;
use std::process::{Command, Stdio};

/// Blocks an untraced run is split into. Each is a fresh process, so a
/// run sets up this many times and reports the median.
pub const BLOCKS: usize = 5;
/// `run_seconds` of `BENCHMARK.json`: seconds of timed operations per run.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// What `run` was asked for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// One workload, or all four.
    pub workloads: Vec<Workload>,
    /// Seconds of timed operations per workload and pass.
    pub seconds: f64,
    /// `Some(false)`: the untraced pass only; `Some(true)`: the traced
    /// pass only (both as the driver calls it); `None`: both.
    pub trace: Option<bool>,
}

/// One workload's blocks.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Untraced blocks, in run order.
    pub blocks: Vec<BlockResult>,
    /// The traced block.
    pub traced: Option<BlockResult>,
}

/// Remove every `MPR_*` variable from a child's environment: a block
/// must measure `Options::default()`, not whatever strategy, durability
/// or pool size the caller's shell happens to export.
pub fn scrub_env(cmd: &mut Command, keys: impl Iterator<Item = OsString>) {
    for key in keys.filter(|k| k.to_string_lossy().starts_with("MPR_")) {
        cmd.env_remove(key);
    }
}

/// Run one block as a child of this executable and parse its last line.
fn spawn_block(spec: &BlockSpec) -> Result<BlockResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("block")
        .args(["--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    scrub_env(&mut cmd, std::env::vars_os().map(|(k, _)| k));
    let out = cmd.output().map_err(|e| format!("spawn block: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} block exited with {}",
            spec.workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("block printed nothing")?;
    BlockResult::from_json(&serde_json::from_str(line).map_err(|e| e.to_string())?)
}

/// Run the configured passes. Untraced blocks of different workloads are
/// interleaved round-robin (w1 w2 w3 w4 w1 …), so a slow minute on a
/// shared host lands on every workload and on few blocks of each.
pub fn run(cfg: &RunConfig) -> Result<Vec<(Workload, WorkloadResult)>, String> {
    let mut results: Vec<(Workload, WorkloadResult)> = cfg
        .workloads
        .iter()
        .map(|w| (*w, WorkloadResult::default()))
        .collect();
    let spec = |workload, trace| BlockSpec {
        workload,
        seed: cfg.seed,
        seconds: if trace {
            cfg.seconds
        } else {
            cfg.seconds / BLOCKS as f64
        },
        trace,
        check: false,
    };
    if cfg.trace != Some(true) {
        for block in 0..BLOCKS {
            for (w, r) in results.iter_mut() {
                eprintln!("[{} block {}/{BLOCKS}]", w.name(), block + 1);
                r.blocks.push(spawn_block(&spec(*w, false))?);
            }
        }
    }
    if cfg.trace != Some(false) {
        for (w, r) in results.iter_mut() {
            eprintln!("[{} traced block]", w.name());
            r.traced = Some(spawn_block(&spec(*w, true))?);
        }
    }
    Ok(results)
}

/// An end-to-end metric of one workload: the run's value and the
/// per-block values it was reduced from.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduced {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// One value per block.
    pub blocks: Vec<f64>,
}

impl WorkloadResult {
    /// Operations checked and operations failed, over every block.
    pub fn counts(&self) -> (u64, u64) {
        let all = self.blocks.iter().chain(&self.traced);
        all.fold((0, 0), |(a, f), b| (a + b.attempted, f + b.failed))
    }

    /// Every timed sample of the untraced blocks.
    pub fn pooled_ms(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.samples_ms.iter().copied())
            .collect()
    }

    /// The end-to-end metrics, in `END_TO_END` order.
    pub fn end_to_end(&self) -> Vec<Reduced> {
        let per_block =
            |f: &dyn Fn(&BlockResult) -> f64| self.blocks.iter().map(f).collect::<Vec<f64>>();
        let turnaround = per_block(&|b| quantile(&b.samples_ms, TURNAROUND_QUANTILE));
        let rss = per_block(&|b| b.peak_rss_mb);
        let setup = per_block(&|b| b.setup_s);
        let values = [
            quantile(&self.pooled_ms(), TURNAROUND_QUANTILE),
            median(&rss),
            median(&setup),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .zip([turnaround, rss, setup])
            .map(|((m, value), blocks)| Reduced {
                name: m.name,
                unit: m.unit,
                value,
                blocks,
            })
            .collect()
    }

    /// The per-layer metrics, in `PER_LAYER` order; a layer the workload
    /// does not exercise reads 0.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let traced = self.traced.as_ref();
        PER_LAYER
            .iter()
            .map(|m| {
                let value = match m.name {
                    "failed_share" => {
                        traced.map_or(0.0, |t| t.failed as f64 / t.attempted.max(1) as f64)
                    }
                    name => traced
                        .and_then(|t| t.layers.iter().find(|(k, _)| k == name))
                        .map_or(0.0, |(_, v)| *v),
                };
                // A ratio over an empty phase is not a number; JSON has none.
                (m.name, m.unit, if value.is_finite() { value } else { 0.0 })
            })
            .collect()
    }
}

/// Print every metric of every workload by name, with its unit.
pub fn print_report(results: &[(Workload, WorkloadResult)]) {
    for (w, r) in results {
        let (attempted, failed) = r.counts();
        println!(
            "\n== {} ==  {attempted} operations checked, {failed} failed",
            w.name()
        );
        for b in r.blocks.iter().chain(&r.traced) {
            for f in &b.failures {
                println!("  FAILED {f}");
            }
        }
        if !r.blocks.is_empty() {
            let pooled = r.pooled_ms();
            println!(
                "  end-to-end (tracing off, {} blocks, {} timed samples)",
                r.blocks.len(),
                pooled.len()
            );
            for m in r.end_to_end() {
                println!(
                    "    {:28} {:>14.4} {:5}  block spread {:.1} %",
                    m.name,
                    m.value,
                    m.unit,
                    spread(&m.blocks) * 100.0
                );
            }
            // Not gated (see README, "Why the 5th percentile"): the median
            // and the tail as a user on this host saw them.
            let tail = highest_percentile(pooled.len(), 10).unwrap_or(0.5);
            println!(
                "    raw: p50 {:.4} ms, p90 {:.4} ms ({} samples beyond), highest percentile with >= 10 beyond: p{} = {:.4} ms",
                quantile(&pooled, 0.50),
                quantile(&pooled, 0.90),
                samples_beyond(pooled.len(), 0.90),
                tail * 100.0,
                quantile(&pooled, tail)
            );
        }
        if r.traced.is_some() {
            println!("  per-layer (traced block)");
            for (name, unit, value) in r.per_layer() {
                println!("    {name:36} {value:>16.4} {unit}");
            }
        }
    }
}

/// The per-layer metrics as a `name → {value, unit}` object.
fn per_layer_json(r: &WorkloadResult) -> Value {
    let metrics = r.per_layer().into_iter();
    Value::Object(
        metrics
            .map(|(n, u, v)| (n.to_string(), json!({"value": v, "unit": u})))
            .collect(),
    )
}

/// The end-to-end metrics as a `name → {value, unit[, blocks]}` object.
fn end_to_end_json(r: &WorkloadResult, with_blocks: bool) -> Value {
    let metric = |m: Reduced| {
        let mut fields = vec![
            ("value".to_string(), json!(m.value)),
            ("unit".to_string(), json!(m.unit)),
        ];
        if with_blocks {
            fields.push(("blocks".to_string(), json!(m.blocks)));
        }
        (m.name.to_string(), Value::Object(fields))
    };
    Value::Object(r.end_to_end().into_iter().map(metric).collect())
}

/// The line the driver reads: the last line of standard output.
pub fn driver_line(r: &WorkloadResult, traced: bool) -> Value {
    let (attempted, failed) = r.counts();
    json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": if traced { per_layer_json(r) } else { end_to_end_json(r, false) },
    })
}

/// The result file: host fingerprint, then per workload the end-to-end
/// metrics with their per-block values and the per-layer metrics.
pub fn result_file(cfg: &RunConfig, results: &[(Workload, WorkloadResult)]) -> Value {
    let workloads: Vec<(String, Value)> = results
        .iter()
        .map(|(w, r)| {
            let (attempted, failed) = r.counts();
            let entry = json!({
                "attempted": attempted,
                "failed": failed,
                "end_to_end": end_to_end_json(r, true),
                "per_layer": per_layer_json(r),
            });
            (w.name().to_string(), entry)
        })
        .collect();
    json!({
        "host": host_fingerprint(),
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "blocks": BLOCKS,
        "workloads": Value::Object(workloads),
    })
}

/// Cores, compiler and commit — what a number is only comparable within.
fn host_fingerprint() -> Value {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    json!({
        "cores": std::thread::available_parallelism().map_or(0, usize::from),
        "rustc": tool("rustc", &["-V"]),
        "commit": tool("git", &["rev-parse", "--short", "HEAD"]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_never_see_mpr_variables() {
        let mut cmd = Command::new("true");
        cmd.env("MPR_EVAL_STRATEGY", "pipelined")
            .env("KEEP_ME", "1");
        let inherited = [
            "MPR_DURABILITY",
            "MPR_BACKTEST_WORKERS",
            "PATH",
            "XMPR_NOT_OURS",
            "MPR_EVAL_STRATEGY",
        ];
        scrub_env(&mut cmd, inherited.iter().map(OsString::from));
        let changes: Vec<(String, Option<String>)> = cmd
            .get_envs()
            .map(|(k, v)| {
                (
                    k.to_string_lossy().into_owned(),
                    v.map(|v| v.to_string_lossy().into_owned()),
                )
            })
            .collect();
        for removed in [
            "MPR_DURABILITY",
            "MPR_BACKTEST_WORKERS",
            "MPR_EVAL_STRATEGY",
        ] {
            assert!(
                changes.contains(&(removed.to_string(), None)),
                "{removed} not removed: {changes:?}"
            );
        }
        assert!(changes.contains(&("KEEP_ME".to_string(), Some("1".to_string()))));
        assert!(!changes
            .iter()
            .any(|(k, _)| k == "PATH" || k == "XMPR_NOT_OURS"));
    }

    #[test]
    fn blocks_reduce_to_the_run_values() {
        let block = |samples: &[f64], rss: f64, setup: f64| BlockResult {
            samples_ms: samples.to_vec(),
            peak_rss_mb: rss,
            setup_s: setup,
            attempted: samples.len() as u64,
            ..BlockResult::default()
        };
        let fast: Vec<f64> = (1..=20).map(f64::from).collect();
        let slow: Vec<f64> = (101..=120).map(f64::from).collect();
        let r = WorkloadResult {
            blocks: vec![
                block(&fast, 10.0, 0.5),
                block(&slow, 30.0, 0.9),
                block(&fast, 20.0, 0.7),
            ],
            traced: None,
        };
        let e2e = r.end_to_end();
        let names: Vec<&str> = e2e.iter().map(|m| m.name).collect();
        assert_eq!(names, ["turnaround_p05_ms", "peak_rss_mb", "setup_s"]);
        // 60 pooled samples: the 5th percentile is the 3rd smallest.
        assert_eq!(e2e[0].value, 2.0);
        assert_eq!(e2e[0].blocks, [1.0, 101.0, 1.0]);
        assert_eq!((e2e[1].value, e2e[2].value), (20.0, 0.7));
        assert_eq!(r.counts(), (60, 0));
        let line = driver_line(&r, false);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(
            line.get("metrics").and_then(Value::as_object).map(Vec::len),
            Some(3)
        );
        assert_eq!(
            driver_line(&r, true)
                .get("metrics")
                .and_then(Value::as_object)
                .map(Vec::len),
            Some(PER_LAYER.len())
        );
    }
}
