//! Design rules that no type checks, held by reading the source tree:
//!
//! - the library is single-threaded: a thread under the crates that run
//!   the loop is a design change, not a detail;
//! - one run loop and one history: a workload is driven in one place
//!   (`mpr_backtest::replay::drive`), the debugger reads the log a run
//!   wrote instead of building an engine to re-make it, and the simulator's
//!   packet-in log, the second meta model (the runnable meta program and
//!   the built-ins only it called), `mpr_trace`'s history type and the
//!   debugger's public per-candidate replay stay gone;
//! - no serde in the library crates: nothing writes a library type, so no
//!   library type carries a wire format;
//! - deleted names stay deleted: a mention outside the logs that record a
//!   deletion (CHANGES.md, ROADMAP.md and every other root-level markdown
//!   file that does not describe the current tree, EXPERIMENTS.md from its
//!   History heading on) and outside `benchmark/` is a dangling pointer.

use std::fs;
use std::path::{Path, PathBuf};

/// This file spells out every name it forbids, so it is not searched.
const SELF: &str = "tests/architecture.rs";

/// Every file under `dir`, relative to the repository root, with its text;
/// build output, version control and `benchmark/` (a workspace of its own)
/// are skipped, and so are files that are not UTF-8.
fn files(dir: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.join(dir)];
    while let Some(path) = stack.pop() {
        let rel = path.strip_prefix(root).expect("under the root").to_string_lossy().replace('\\', "/");
        if ["target", ".git", ".bench_build", "benchmark"].contains(&rel.as_str()) || rel == SELF {
            continue;
        }
        if path.is_dir() {
            let entries = fs::read_dir(&path).expect("the source tree is readable");
            stack.extend(entries.map(|e| e.expect("a directory entry").path()));
        } else if let Ok(text) = fs::read_to_string(&path) {
            out.push((rel, text));
        }
    }
    out.sort();
    out
}

/// `file:line: text` of every line of `files` that contains one of `names`.
fn mentions(files: &[(String, String)], names: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for (rel, text) in files {
        for (i, line) in text.lines().enumerate() {
            if names.iter().any(|n| line.contains(n)) {
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    hits
}

fn under(dirs: &[&str]) -> Vec<(String, String)> {
    dirs.iter().flat_map(|d| files(d)).collect()
}

#[test]
fn the_library_crates_start_no_threads() {
    let lib = under(&["crates/backtest/src", "crates/core/src", "crates/runtime/src", "crates/sdn/src"]);
    let hits = mentions(&lib, &["std::thread"]);
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn one_run_loop_one_history_one_meta_model() {
    let injects = mentions(&under(&["crates/backtest/src", "crates/core/src"]), &[".inject(", ".run_workload("]);
    assert!(injects.len() <= 1, "a second run loop: {injects:#?}");
    let engines = mentions(&under(&["crates/core/src/debugger.rs"]), &["Engine::"]);
    assert!(engines.is_empty(), "the debugger re-makes history: {engines:#?}");
    // `replay_each`: a differential's expected side is `tests/common/reference.rs`.
    let gone = ["packet_in_log", "metamodel::", "metafull", "meta_interpret", "history::History", "replay_each"];
    let gone = mentions(&under(&["crates", "src", "tests", "examples"]), &gone);
    assert!(gone.is_empty(), "{gone:#?}");
    // The built-ins only the runnable meta program called: the runtime
    // refuses a call to any of them at construction.
    let lib: Vec<_> = under(&["crates", "src"]).into_iter().filter(|(rel, _)| rel.contains("src/")).collect();
    let builtins = mentions(&lib, &["\"f_match\"", "\"f_join\"", "\"f_apply\""]);
    assert!(builtins.is_empty(), "{builtins:#?}");
}

#[test]
fn the_library_crates_carry_no_serde() {
    let lib: Vec<_> = files("crates").into_iter().filter(|(rel, _)| rel.contains("/src/")).collect();
    let hits = mentions(&lib, &["Serialize", "Deserialize", "serde::"]);
    assert!(hits.is_empty(), "{hits:#?}");
}

#[test]
fn deleted_names_stay_deleted() {
    const DELETED: &[&str] = &[
        // The paper-table, micro, Fig. 10, 9c-XL and durability pins and
        // bench targets, `guard`, the criterion shim, the provenance graph
        // codec and the µDlog checker.
        "BENCH_table",
        "BENCH_micro",
        "BENCH_fig10",
        "BENCH_fig9c_xl",
        "BENCH_durability",
        "--bench table1",
        "--bench table2",
        "--bench table3",
        "--bench table6",
        "--bench micro",
        "--bench guard",
        "--bench fig10",
        "--bench fig9c_xl",
        "vendor/criterion",
        "criterion::",
        "ProvGraph",
        "udlog",
        // The flow-table signature index and its reference mode, the
        // solver's tiers and enumeration, and the packet wire codec.
        "LookupIndex",
        "set_reference_mode",
        "SolveStats",
        "Tier::",
        "Pool::enumerate",
        "Packet::encode",
        // Settings no caller changed: the search deadline, the uniform
        // link loss and its counter, the latencies and the `f_unique`
        // seed; and two functions nothing called.
        "time_budget_ms",
        "search_timed_out",
        "unique_seed",
        "link_latency",
        "controller_latency",
        "dropped_fault",
        "cfg.drop_chance",
        "bound_positions",
        "line_count",
        // A second spelling of a selection-side change and the constant
        // locator only it used; a head edit nothing emitted; the kill
        // sweep's two captures of one run; public helpers nothing called.
        "SetConst",
        "ConstSite",
        "SetHeadArg",
        "at_path",
        "KillPhase",
        "ProcessKill",
        "get_or_default",
        "timeout_code",
        "describe_codec",
        "inserted_tuple",
        "assigned_vars",
        "table_names",
        "total_bytes",
        // The store journal, its snapshots and compaction, and the backend
        // only its oracle used (the WAL records the engine's inputs now);
        // the wall-clock step budget, which replay could not reproduce.
        "StoreOp",
        "StoreRecovery",
        "attach_journal",
        "install_snapshot",
        "compact_every",
        "MemBackend",
        "SNAPSHOT_MAGIC",
        "time_budget",
        "TimeBudget",
        // The round tracker's per-table counters and name-keyed queries:
        // one round id per tuple id is all the join reads.
        "RelationDeltaStats",
        "delta_stats",
        "in_current_round",
        // The round budget, which the per-step derivation budget already
        // bounds, and two public helpers only their own tests read.
        "max_rounds",
        "RoundLimit",
        "tuples_at",
        "op_repairs_allowed",
        // The keyed index registry, a second copy of the store's state:
        // joins probe the store's own key maps.
        "IndexRegistry",
        "IndexSpec",
        "probed_indexes",
        "holds_exactly",
        // The simulator's host counter, now `SimStats::arrive`, which the
        // joint replay counts with too.
        "arrive_host",
        // The debugger's whole-run routes to the reference: the joint
        // replay names every candidate it does not answer for.
        "use_mqo",
        "mqo_supported",
        // The joint controller's second index of who holds which payload,
        // for output tuples only: one keyed table holds state and outputs.
        "LiveOutputs",
        // The engine's deaf-event shortcut and the joint replay's own
        // quiet-step key: both controllers answer a step that changes
        // nothing by one rule in the runtime.
        "unheard_by_rules",
        "quiet_key",
        // Head aggregates, which no program ran: the parser refuses them,
        // and the engine has one firing path and never nests a fixpoint.
        "AggKind",
        "AggSpec",
        "agg_spec",
        "agg_add",
        "agg_retract",
        "agg_emit",
        "agg_group_key",
        "BadAggregate",
        "AggregateOverEvent",
        "AggInBody",
        "is_aggregate",
        "has_agg",
        // The solver's second expression language: a constraint pool is a
        // search of the domain under the rule's own evaluator.
        "STerm",
        "selection_constraint",
        "rename_var",
        "Pool::solve",
        "mpr_solver::",
    ];
    // The root-level markdown files that describe the tree as it is; every
    // other one (CHANGES.md, ROADMAP.md, ...) is a log that may record a
    // deletion.
    const CURRENT: &[&str] = &["README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md"];
    let is_log = |rel: &str| !rel.contains('/') && rel.ends_with(".md") && !CURRENT.contains(&rel);
    let mut tree: Vec<_> = files(".").into_iter().filter(|(rel, _)| !is_log(rel)).collect();
    for (rel, text) in &mut tree {
        if rel == "EXPERIMENTS.md" {
            text.truncate(text.find("\n## History").unwrap_or(text.len()));
        }
    }
    let hits = mentions(&tree, DELETED);
    assert!(hits.is_empty(), "{hits:#?}");
}
