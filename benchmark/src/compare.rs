//! `compare A.json B.json`: one row per (workload, end-to-end metric), and
//! `selftest`, which feeds two runs of the same binary to it.

use crate::metrics::{Metric, END_TO_END};
use crate::stats::spread;
use serde_json::Value;

/// What a row says about B relative to A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound, or every block of B beats every
    /// block of A.
    Improved,
    /// Within the bound, and the blocks agree well enough to say so.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound, but the block-to-block spread is wider than the
    /// bound, and not every block of B beats every block of A.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// The run's reported value.
    pub value: f64,
    /// The per-block values behind it.
    pub blocks: Vec<f64>,
}

/// Judge B against A for one metric.
pub fn judge(m: &Metric, a: &Side, b: &Side) -> Verdict {
    // Orient so that larger is worse.
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (b.value - a.value) / a.value.abs().max(f64::MIN_POSITIVE);
    let worst = |s: &Side| {
        s.blocks
            .iter()
            .map(|x| sign * x)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let best = |s: &Side| {
        s.blocks
            .iter()
            .map(|x| sign * x)
            .fold(f64::INFINITY, f64::min)
    };
    let every_b_beats_every_a = !a.blocks.is_empty() && !b.blocks.is_empty() && worst(b) < best(a);
    let noisy = spread(&a.blocks) > m.bound || spread(&b.blocks) > m.bound;
    if worse_by > m.bound {
        Verdict::Regressed
    } else if worse_by < -m.bound || (noisy && every_b_beats_every_a) {
        Verdict::Improved
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// A row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// The verdict.
    pub verdict: Verdict,
}

fn side(file: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        blocks: m
            .get("blocks")?
            .as_array()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    })
}

fn failed_share(file: &Value, workload: &str) -> f64 {
    let count = |k: &str| {
        file.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(k))
            .and_then(Value::as_f64)
    };
    count("failed").unwrap_or(0.0) / count("attempted").unwrap_or(1.0).max(1.0)
}

/// Compare two result files, printing one row per (workload, end-to-end
/// metric) present in both. Returns the rows and whether B may pass: no
/// row regressed and no workload's failed share rose.
pub fn compare(a: &Value, b: &Value) -> (Vec<Row>, bool) {
    let host = |f: &Value| {
        f.get("host")
            .map(|h| serde_json::to_string(h).unwrap_or_default())
            .unwrap_or_default()
    };
    println!("A: {}\nB: {}", host(a), host(b));
    println!(
        "{:16} {:20} {:>13} {:>13} {:>22} {:>9} {:>9}  verdict",
        "workload", "metric", "A", "B", "B/A", "spread A", "spread B"
    );
    let mut rows = Vec::new();
    let mut pass = true;
    let names: Vec<String> = a
        .get("workloads")
        .and_then(Value::as_object)
        .map(|w| w.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    for workload in names {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, &workload, m.name), side(b, &workload, m.name))
            else {
                continue;
            };
            let verdict = judge(m, &sa, &sb);
            println!(
                "{:16} {:20} {:>13.4} {:>13.4} {:>9.4} (A = {:>8.3}) {:>8.1}% {:>8.1}%  {}",
                workload,
                m.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                sa.value,
                spread(&sa.blocks) * 100.0,
                spread(&sb.blocks) * 100.0,
                verdict.label()
            );
            pass &= verdict != Verdict::Regressed;
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                verdict,
            });
        }
        let (fa, fb) = (failed_share(a, &workload), failed_share(b, &workload));
        if fb > fa {
            println!("{workload:16} failed_share rose from {fa} to {fb}");
            pass = false;
        }
    }
    (rows, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: Metric = Metric {
        name: "t",
        unit: "ms",
        higher_is_better: false,
        bound: 0.10,
    };

    fn side(value: f64, blocks: &[f64]) -> Side {
        Side {
            value,
            blocks: blocks.to_vec(),
        }
    }

    #[test]
    fn verdicts() {
        let steady = side(100.0, &[99.0, 100.0, 101.0, 100.0, 100.5]);
        assert_eq!(
            judge(
                &M,
                &steady,
                &side(104.0, &[103.0, 104.0, 105.0, 104.0, 104.0])
            ),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(
                &M,
                &steady,
                &side(115.0, &[114.0, 115.0, 116.0, 115.0, 115.0])
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&M, &steady, &side(85.0, &[84.0, 85.0, 86.0, 85.0, 85.0])),
            Verdict::Improved
        );
        // Blocks of A disagree by more than the bound: a 4 % difference
        // proves nothing, unless every block of B beats every block of A.
        let noisy = side(100.0, &[96.0, 100.0, 120.0, 98.0, 110.0]);
        assert_eq!(
            judge(&M, &noisy, &side(97.0, &[96.5, 97.0, 97.5, 97.0, 97.0])),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&M, &noisy, &side(94.0, &[93.0, 94.0, 95.0, 94.0, 94.5])),
            Verdict::Improved
        );
        // Noise does not excuse a regression.
        assert_eq!(
            judge(
                &M,
                &noisy,
                &side(125.0, &[120.0, 125.0, 130.0, 125.0, 126.0])
            ),
            Verdict::Regressed
        );
        // Higher-is-better metrics flip.
        let up = Metric {
            higher_is_better: true,
            ..M
        };
        assert_eq!(
            judge(
                &up,
                &steady,
                &side(115.0, &[114.0, 115.0, 116.0, 115.0, 115.0])
            ),
            Verdict::Improved
        );
    }
}
