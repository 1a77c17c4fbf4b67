//! One block: build the workload's inputs, warm up, run timed operations
//! for the block's share of the run, check every output. A block is a
//! fresh child process, so peak RSS and allocator state are its own.

use crate::layers;
use crate::repair::{staged_drive, whole_operation};
use crate::trace::Tracer;
use crate::workloads::{pass, PassKind, RepairInputs, StreamInputs, Workload, CHUNK};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Untimed operations before the first timed one.
const WARMUP_OPS: usize = 2;
/// Timed operations a block runs even when one overruns its seconds.
const MIN_TIMED_OPS: usize = 3;
/// Failure descriptions kept per block (the count is always exact).
const MAX_FAILURE_NOTES: usize = 8;

/// What a block is asked to do.
#[derive(Debug, Clone)]
pub struct BlockSpec {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed operations.
    pub seconds: f64,
    /// Also run the traced pass and the layer probes.
    pub trace: bool,
    /// Smoke mode: no warm-up, one timed operation.
    pub check: bool,
}

/// What a block measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockResult {
    /// Process start to first timed operation: input construction plus
    /// warm-up.
    pub setup_s: f64,
    /// The process's `VmHWM` after the timed operations and the
    /// cross-check (for `packetin-stream`: when the first pass ended).
    pub peak_rss_mb: f64,
    /// Operations whose output was checked (warm-up included).
    pub attempted: u64,
    /// Of which wrong, failed or panicked.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Wall-clock of each timed operation, tracing off. For
    /// `packetin-stream`: per packet-in, one sample per 1 000-packet chunk.
    pub samples_ms: Vec<f64>,
    /// Per-layer metrics; empty unless the block was traced.
    pub layers: Vec<(String, f64)>,
}

impl BlockResult {
    /// Count `operations` as failed for one reason.
    pub fn fail(&mut self, operations: u64, note: String) {
        self.failed += operations;
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(note);
        }
    }

    /// The line a child block prints for its parent.
    pub fn to_json(&self) -> Value {
        json!({
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures.clone(),
            "samples_ms": self.samples_ms.clone(),
            "layers": Value::Object(self.layers.iter().map(|(k, v)| (k.clone(), json!(*v))).collect()),
        })
    }

    /// Parse a child's line.
    pub fn from_json(v: &Value) -> Result<BlockResult, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("block result: missing `{k}`"))
        };
        let list = |k: &str| {
            v.get(k)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("block result: missing `{k}`"))
        };
        Ok(BlockResult {
            setup_s: num("setup_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: list("failures")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            samples_ms: list("samples_ms")?
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
            layers: v
                .get("layers")
                .and_then(Value::as_object)
                .ok_or("block result: missing `layers`")?
                .iter()
                .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                .collect(),
        })
    }
}

/// Where blocks write: WAL directories and trace files. Everything the
/// benchmark leaves behind is under here.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

/// A field of `/proc/self/status` in MB (`VmHWM`, `VmRSS`).
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix(field)?
                .strip_prefix(':')?
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one block in this process. `started` is when the process began.
pub fn run_block(spec: &BlockSpec, started: Instant) -> BlockResult {
    let mut r = BlockResult::default();
    match spec.workload {
        Workload::PacketinStream => stream_block(spec, started, &mut r),
        _ => repair_block(spec, started, &mut r),
    }
    r
}

/// One operation of a repair workload: every scenario once, in the next
/// seeded order. Returns the operation's wall-clock (the sum of its
/// repairs; checking is off the clock) and each repair's share.
fn repair_operation(inputs: &mut RepairInputs, r: &mut BlockResult) -> (f64, Vec<(usize, f64)>) {
    let mut parts = Vec::with_capacity(inputs.scenarios.len());
    for i in inputs.next_order() {
        let scenario = &inputs.scenarios[i];
        let t = Instant::now();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| whole_operation(scenario)));
        parts.push((i, t.elapsed().as_secs_f64() * 1e3));
        r.attempted += 1;
        let verdict = match outcome {
            Ok(Ok(out)) => out.check(&inputs.goldens[i], inputs.full_check),
            Ok(Err(e)) => Err(format!("returned Err: {e}")),
            Err(_) => Err("panicked".to_string()),
        };
        if let Err(e) = verdict {
            r.fail(1, format!("{}: {e}", scenario.id));
        }
    }
    (parts.iter().map(|p| p.1).sum(), parts)
}

fn repair_block(spec: &BlockSpec, started: Instant, r: &mut BlockResult) {
    let mut inputs = RepairInputs::build(spec.workload, spec.seed);
    if !spec.check {
        for _ in 0..WARMUP_OPS {
            repair_operation(&mut inputs, r);
        }
    }
    r.setup_s = started.elapsed().as_secs_f64();

    // Tracing off: the end-to-end samples. A traced block spends a third
    // of its seconds here, so the traced operations that follow have an
    // untraced baseline from the same process and the same minute.
    let untraced_s = if spec.trace {
        spec.seconds / 3.0
    } else {
        spec.seconds
    };
    let min_ops = if spec.check { 1 } else { MIN_TIMED_OPS };
    let mut per_scenario: Vec<Vec<f64>> = vec![Vec::new(); inputs.scenarios.len()];
    let phase = Instant::now();
    while r.samples_ms.len() < min_ops
        || (!spec.check && phase.elapsed().as_secs_f64() < untraced_s)
    {
        let (ms, parts) = repair_operation(&mut inputs, r);
        r.samples_ms.push(ms);
        for (i, part) in parts {
            per_scenario[i].push(part);
        }
    }

    // Off the clock: the goldens against the independent per-candidate
    // replay path. A traced block repeats the staged drive for its share
    // of the seconds and keeps the spans.
    let mut tracer = Tracer::new();
    let staged_s = if spec.trace { spec.seconds / 3.0 } else { 0.0 };
    let phase = Instant::now();
    let mut counts_of_first_round = Vec::new();
    for round in 0.. {
        for (i, scenario) in inputs.scenarios.iter().enumerate() {
            tracer.next_op();
            let root = tracer.enter(format!("op:{}", scenario.id));
            // The timed operations above already checked the whole
            // operation; only a traced block needs it again, as a span.
            let whole = spec
                .trace
                .then(|| tracer.span("whole", || whole_operation(scenario)))
                .transpose();
            let stage = tracer.enter("staged");
            let drive = staged_drive(scenario, &mut tracer);
            tracer.exit(stage);
            tracer.exit(root);
            r.attempted += 1;
            let verdict = match (whole, drive) {
                (Err(e), _) | (_, Err(e)) => Err(e),
                (Ok(_), Ok(None)) => Ok(()),
                (Ok(whole), Ok(Some((out, counts)))) => {
                    let agree = match whole {
                        Some(whole) if whole != out => Err(format!(
                            "staged drive yields {out:?}, whole operation {whole:?}"
                        )),
                        _ => out.check(&inputs.goldens[i], inputs.full_check),
                    };
                    if round == 0 {
                        counts_of_first_round.push(counts);
                    }
                    agree
                }
            };
            if let Err(e) = verdict {
                r.fail(1, format!("{} (staged): {e}", scenario.id));
            }
        }
        if phase.elapsed().as_secs_f64() >= staged_s {
            break;
        }
    }
    // Read after the cross-check: its one staged drive per scenario ends
    // every block on the same allocations, where the timed operations
    // alone leave prog-900 at 39.5 or 41.5 MB by how the pool's threads
    // happened to share arenas.
    r.peak_rss_mb = proc_status_mb("VmHWM");
    if spec.trace {
        r.layers = layers::repair_layers(
            spec.workload,
            &inputs,
            &r.samples_ms,
            &per_scenario,
            &tracer,
            &counts_of_first_round,
        );
        let path = out_dir().join(format!("trace-{}.jsonl", spec.workload.name()));
        if let Err(e) = tracer.write_jsonl(&path) {
            r.fail(1, format!("write {}: {e}", path.display()));
        }
    }
}

fn stream_block(spec: &BlockSpec, started: Instant, r: &mut BlockResult) {
    let inputs = StreamInputs::build(spec.seed);
    let wal_dir = out_dir().join(format!("wal-{}", std::process::id()));
    if !spec.check {
        // Warm-up: a short pass on a throwaway controller.
        pass(
            &mut inputs.controller(PassKind::Mem, &wal_dir),
            &inputs.msgs[..WARMUP_OPS * CHUNK],
        );
    }
    r.setup_s = started.elapsed().as_secs_f64();

    // Timed passes, fresh controller each. Untraced blocks run `Mem`
    // passes only; a traced block alternates `Mem` and `Wal` so the two
    // see the same minute, and hands both to the layer probes.
    let passes_s = if spec.trace {
        spec.seconds * 0.6
    } else {
        spec.seconds
    };
    let min_passes = if spec.check {
        1
    } else if spec.trace {
        2
    } else {
        MIN_TIMED_OPS
    };
    let mut wal_samples: Vec<f64> = Vec::new();
    let mut first_digest = None;
    let mut history_mb = 0.0;
    let mut passes = 0;
    let phase = Instant::now();
    while passes < min_passes || (!spec.check && phase.elapsed().as_secs_f64() < passes_s) {
        let kind = if spec.trace && passes % 2 == 1 {
            PassKind::Wal
        } else {
            PassKind::Mem
        };
        let rss_before = proc_status_mb("VmRSS");
        let mut ctrl = inputs.controller(kind, &wal_dir);
        let (samples, digest) = pass(&mut ctrl, &inputs.msgs);
        if passes == 0 {
            // The first pass of a fresh process: RSS growth is the history
            // one controller holds. Later passes add what the allocator
            // kept of their predecessors (295 MB becomes 297 or 324 by
            // seed) — an artefact of re-creating controllers in one
            // process, so the peak is read here.
            history_mb = proc_status_mb("VmRSS") - rss_before;
            r.peak_rss_mb = proc_status_mb("VmHWM");
        }
        drop(ctrl);
        passes += 1;
        r.attempted += inputs.msgs.len() as u64;
        let expected = inputs.golden.unwrap_or(*first_digest.get_or_insert(digest));
        if digest != expected || digest.messages == 0 {
            r.fail(
                inputs.msgs.len() as u64,
                format!("pass {passes} ({kind:?}): replies {digest:?}, expected {expected:?}"),
            );
        }
        if kind == PassKind::Mem {
            r.samples_ms.extend(samples);
        } else {
            wal_samples.extend(samples);
        }
    }
    if spec.trace {
        r.layers = layers::stream_layers(
            &inputs,
            &r.samples_ms.clone(),
            &wal_samples,
            history_mb,
            &wal_dir,
            r,
        );
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// `--check`: one operation per workload, goldens verified, in this
/// process. Returns the failures.
pub fn smoke_check(seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        let spec = BlockSpec {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            check: true,
        };
        let t = Instant::now();
        let r = run_block(&spec, t);
        println!(
            "check {:16} {} operations checked, {} failed, {:.2} s",
            workload.name(),
            r.attempted,
            r.failed,
            t.elapsed().as_secs_f64()
        );
        failures.extend(
            r.failures
                .into_iter()
                .map(|f| format!("{}: {f}", workload.name())),
        );
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run --check`: one operation per workload, every golden verified
    /// (and cross-checked by the staged drive), in this process.
    #[test]
    fn smoke_check_passes_on_the_golden_seed() {
        let failures = smoke_check(crate::workloads::GOLDEN_SEED);
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn block_results_survive_the_child_protocol() {
        let r = BlockResult {
            setup_s: 0.25,
            peak_rss_mb: 160.5,
            attempted: 12,
            failed: 1,
            failures: vec!["Q1: generated 13 candidates, golden 14".into()],
            samples_ms: vec![1.5, 2.25, 3.0],
            layers: vec![
                ("core.observe_ms".into(), 2.5),
                ("core.candidates".into(), 14.0),
            ],
        };
        let line = serde_json::to_string(&r.to_json()).unwrap();
        assert_eq!(
            BlockResult::from_json(&serde_json::from_str(&line).unwrap()),
            Ok(r)
        );
    }
}
