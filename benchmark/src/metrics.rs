//! The benchmark's metric names and units — the same lists `BENCHMARK.json`
//! carries (a unit test holds the two together).

/// The low quantile the gated turnaround is read at. On this shared
/// 2-vCPU host the upper half of an operation's latency distribution
/// measures the neighbours: back-to-back runs of one binary move the
/// median by 15–40 % and the 5th percentile by 3–9 %.
pub const TURNAROUND_QUANTILE: f64 = 0.05;

/// A metric's description.
pub struct Metric {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound: 0.0,
    }
}

/// End-to-end metrics: measured with tracing off, reported by every
/// workload, gated by their bound.
pub const END_TO_END: [Metric; 3] = [
    gated("turnaround_p05_ms", "ms", 0.25),
    gated("peak_rss_mb", "MB", 0.10),
    gated("setup_s", "s", 0.25),
];

/// Per-layer metrics: from the traced run, no bound. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [Metric; 57] = [
    // Demoted end-to-end metrics: real, user-visible, and too noisy on
    // this host to hold a bound.
    lower("turnaround_p50_ms", "ms"),
    lower("turnaround_p90_ms", "ms"),
    higher("repairs_per_s", "1/s"),
    higher("packetin_per_s", "1/s"),
    higher("packetin_wal_per_s", "1/s"),
    lower("packetin_p50_us", "us"),
    lower("failed_share", "ratio"),
    lower("bench.trace_overhead_pct", "%"),
    lower("core.observe_ms", "ms"),
    lower("core.explore_ms", "ms"),
    lower("core.candidates", "count"),
    lower("core.trees", "count"),
    lower("core.unattributed_ms", "ms"),
    lower("core.repair_ms.Q1", "ms"),
    lower("core.repair_ms.Q2", "ms"),
    lower("core.repair_ms.Q3", "ms"),
    lower("core.repair_ms.Q4", "ms"),
    lower("core.repair_ms.Q5", "ms"),
    lower("core.repair_ms.Fig7", "ms"),
    lower("core.repair_ms.Q1-trema", "ms"),
    lower("core.repair_ms.Q1-pyretic", "ms"),
    lower("solver.solve_ms", "ms"),
    lower("solver.pools", "count"),
    lower("backtest.mqo_ms", "ms"),
    lower("backtest.seq_ms", "ms"),
    higher("backtest.mqo_speedup", "ratio"),
    lower("backtest.replay_one_ms", "ms"),
    lower("backtest.ks_us", "us"),
    lower("sdn.sim_new_ms", "ms"),
    lower("sdn.sim_ms", "ms"),
    lower("sdn.events", "count"),
    lower("sdn.ns_per_event", "ns"),
    lower("sdn.flow_lookup_ns", "ns"),
    lower("sdn.routes_cold_ms", "ms"),
    lower("sdn.routes_warm_ns", "ns"),
    lower("sdn.topology_build_ms", "ms"),
    lower("runtime.compile_ms", "ms"),
    lower("runtime.fixpoint_ms", "ms"),
    lower("runtime.derivations", "count"),
    lower("runtime.tuples", "count"),
    lower("runtime.index_entries", "count"),
    lower("runtime.packetin_us", "us"),
    lower("runtime.packetin_p99_us", "us"),
    lower("runtime.record_overhead_pct", "%"),
    lower("runtime.log_bytes_per_packetin", "B"),
    lower("storage.wal_ratio", "ratio"),
    lower("storage.journal_bytes_per_packetin", "B"),
    higher("storage.append_mb_s", "MB/s"),
    lower("storage.recover_ms", "ms"),
    lower("ndlog.parse_ms", "ms"),
    lower("ndlog.patch_apply_us", "us"),
    lower("ndlog.rules", "count"),
    lower("provenance.explain_ms", "ms"),
    lower("provenance.tree_vertices", "count"),
    lower("trace.generate_ms", "ms"),
    lower("langs.compile_ms", "ms"),
    lower("bench.samples", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` and the code agree on every name, unit, direction
    /// and bound, and the file stays inside the driver's limits.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        assert_eq!(
            v.get("run_seconds").and_then(Value::as_f64),
            Some(crate::runner::DEFAULT_SECONDS)
        );

        let list = |key: &str| {
            v.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("`{key}` is a list"))
        };
        let text_of =
            |row: &Value, key: &str| row.get(key).and_then(Value::as_str).map(str::to_string);
        let names: Vec<String> = list("workloads")
            .iter()
            .filter_map(|w| text_of(w, "name"))
            .collect();
        let workloads: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, workloads);

        for (key, ours, gated) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let rows = list(key);
            assert_eq!(rows.len(), ours.len(), "{key}");
            for (row, m) in rows.iter().zip(ours) {
                assert_eq!(text_of(row, "name").as_deref(), Some(m.name));
                assert_eq!(text_of(row, "unit").as_deref(), Some(m.unit), "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    text_of(row, "better").as_deref(),
                    Some(better),
                    "{}",
                    m.name
                );
                assert_eq!(
                    row.get("bound").and_then(Value::as_f64),
                    gated.then_some(m.bound),
                    "{}",
                    m.name
                );
                assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            }
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
