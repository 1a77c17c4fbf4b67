//! Engine-level durability: a WAL engine's log holds the calls it was
//! given, and re-running them must rebuild the engine — its store and its
//! execution log — exactly, after a clean shutdown; as the engine fed the
//! surviving whole records, after a crash at any WAL byte offset. A log
//! written for another program is refused, and a WAL that cannot open must
//! degrade the engine to memory-only, not take it down.

use mpr_ndlog::{parse_program, Program, Tuple, Value};
use mpr_runtime::engine::{Durability, WalOptions};
use mpr_runtime::{Engine, EvalStrategy, Options, RecoverError, RuntimeError};
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mpr-dur-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The `determinism.rs` churn program: primary-key races and a self-join.
fn program() -> Arc<Program> {
    Arc::new(
        parse_program(
            "dur",
            r"
        materialize(Src, infinity, 2, keys(0,1)).
        materialize(Pick, infinity, 2, keys(0)).
        materialize(Joined, infinity, 2, keys(0,1)).
        p1 Pick(@N,X,Y) :- Src(@N,X,Y).
        j1 Joined(@N,X,Z) :- Src(@N,X,Y), Src(@N,Y,Z).
        ",
        )
        .unwrap(),
    )
}

fn src(a: i64, b: i64) -> Tuple {
    Tuple::new("Src", Value::Int(1), vec![Value::Int(a), Value::Int(b)])
}

/// Ten calls, `true` for an insert: inserts racing on primary keys, then
/// deletes that cascade.
fn calls() -> Vec<(bool, Tuple)> {
    let inserts = [(1, 2), (2, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 1), (1, 2)];
    let deletes = [(1, 2), (2, 3)];
    let call = |insert| move |(a, b)| (insert, src(a, b));
    inserts.into_iter().map(call(true)).chain(deletes.into_iter().map(call(false))).collect()
}

/// Make `calls` on `e`; whether each failed (a delete cannot).
fn run(e: &mut Engine, calls: &[(bool, Tuple)]) -> Vec<bool> {
    let call = |(insert, t): &(bool, Tuple)| {
        if *insert {
            return e.insert(t.clone()).is_err();
        }
        e.delete(t);
        false
    };
    calls.iter().map(call).collect()
}

fn script(e: &mut Engine) {
    assert!(!run(e, &calls()).contains(&true));
}

fn opts(strategy: EvalStrategy) -> Options {
    Options { strategy, ..Options::default() }
}

fn wal_engine(dir: &Path, strategy: EvalStrategy) -> Engine {
    let opts = Options { durability: Durability::Wal(WalOptions::new(dir)), ..opts(strategy) };
    Engine::shared(program(), opts).unwrap()
}

/// Store, log and logical time: what recovery must give back.
fn assert_same(got: &Engine, want: &Engine, what: &str) {
    assert_eq!(got.store().dump(), want.store().dump(), "{what}: store diverged");
    assert_eq!(got.log(), want.log(), "{what}: log diverged");
    assert_eq!(got.now(), want.now(), "{what}: time diverged");
}

#[test]
fn recovered_store_matches_live_store_exactly() {
    for strategy in [EvalStrategy::Batch, EvalStrategy::Pipelined] {
        let dir = scratch("exact");
        let mut live = wal_engine(&dir, strategy);
        script(&mut live);
        assert_eq!(live.durability_degraded(), None);
        let wal_dir = live.wal_dir().expect("WAL must be active").to_path_buf();

        let (mut recovered, report) = Engine::recover(program(), opts(strategy), &wal_dir).unwrap();
        assert!(report.status.is_clean(), "clean shutdown must recover clean");
        assert_eq!(report.inputs, 10);
        assert_same(&recovered, &live, &format!("{strategy}"));
        // Derivation records and indexes came back too: the next calls
        // retract and join exactly as they do on an engine that never
        // stopped.
        drop(live);
        let mut twin = Engine::shared(program(), opts(strategy)).unwrap();
        script(&mut twin);
        for e in [&mut twin, &mut recovered] {
            e.delete(&src(3, 1));
            e.insert(src(5, 3)).unwrap();
        }
        assert_same(&recovered, &twin, &format!("{strategy}, driven on"));

        // The recovered engine appends to the same log.
        drop(recovered);
        let (again, report) = Engine::recover(program(), opts(strategy), &wal_dir).unwrap();
        assert_eq!(report.inputs, 12);
        assert_same(&again, &twin, &format!("{strategy}, recovered twice"));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_at_any_offset_recovers_an_op_prefix() {
    let dir = scratch("prefix");
    let mut live = wal_engine(&dir, EvalStrategy::Batch);
    script(&mut live);
    let wal_file = live.wal_dir().unwrap().join("wal.log");
    drop(live);
    let len = fs::metadata(&wal_file).unwrap().len();
    let original = fs::read(&wal_file).unwrap();

    // Crash at a spread of byte offsets, including every tenth byte.
    let mut torn = 0;
    for cut in (0..=len).step_by(10.max(len as usize / 80)) {
        let crashed = scratch("crashed");
        fs::create_dir_all(&crashed).unwrap();
        fs::write(crashed.join("wal.log"), &original[..cut as usize]).unwrap();

        let (recovered, report) = Engine::recover(program(), Options::default(), &crashed).unwrap();
        torn += usize::from(!report.status.is_clean());
        // The recovered engine must equal one fed exactly the whole input
        // records the cut left.
        let mut oracle = Engine::shared(program(), Options::default()).unwrap();
        run(&mut oracle, &calls()[..report.inputs]);
        assert_same(&recovered, &oracle, &format!("cut at {cut} ({} inputs)", report.inputs));
        let _ = fs::remove_dir_all(&crashed);
    }
    assert!(torn > 0, "no cut tore a record");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_call_is_logged_and_fails_again_on_replay() {
    let dir = scratch("failed");
    let opts = Options { max_derivations: 2, ..Options::default() };
    let mut live =
        Engine::shared(program(), Options { durability: Durability::Wal(WalOptions::new(&dir)), ..opts.clone() })
            .unwrap();
    let failed = run(&mut live, &calls());
    assert!(failed.contains(&true) && failed.contains(&false), "want both outcomes: {failed:?}");
    assert!(matches!(
        live.insert(Tuple::new("Src", Value::Int(1), vec![Value::Int(1)])),
        Err(RuntimeError::ArityMismatch { .. })
    ));
    let (recovered, report) = Engine::recover(program(), opts, live.wal_dir().unwrap()).unwrap();
    assert_eq!(report.inputs, 11);
    assert_same(&recovered, &live, "after failed calls");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_log_for_another_program_is_refused() {
    let dir = scratch("mismatch");
    let mut live = wal_engine(&dir, EvalStrategy::Batch);
    script(&mut live);
    let mut other = (*program()).clone();
    other.rules.pop();
    let refused = Engine::recover(Arc::new(other), Options::default(), live.wal_dir().unwrap());
    assert!(
        matches!(refused, Err(RecoverError::ProgramMismatch { expected, found }) if expected != found),
        "a header for another program must be refused"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unopenable_wal_degrades_to_memory_only() {
    // A *file* where the WAL parent dir should be → create_dir_all fails.
    let dir = scratch("degrade");
    fs::create_dir_all(dir.parent().unwrap()).unwrap();
    fs::write(&dir, b"not a directory").unwrap();

    let mut e = wal_engine(&dir, EvalStrategy::Batch);
    let reason = e.durability_degraded().expect("open failure must be reported");
    assert!(reason.contains("open"), "unexpected reason: {reason}");
    assert!(e.wal_dir().is_none());
    // The engine still evaluates normally.
    script(&mut e);
    assert!(!e.tuples("Pick").is_empty());
    let _ = fs::remove_file(&dir);
}

#[test]
fn mem_durability_keeps_store_unjournaled() {
    let mut e = Engine::shared(program(), Options::default()).unwrap();
    script(&mut e);
    assert_eq!(e.wal_dir(), None);
    assert_eq!(e.durability_degraded(), None);
}

/// A torn header leaves an empty log: the restart starts from nothing and
/// writes a fresh header before its own inputs.
#[test]
fn a_torn_header_restarts_from_nothing() {
    let dir = scratch("torn-header");
    let live = wal_engine(&dir, EvalStrategy::Batch);
    let wal_dir = live.wal_dir().unwrap().to_path_buf();
    drop(live);
    let wal_file = wal_dir.join("wal.log");
    let len = fs::metadata(&wal_file).unwrap().len();
    OpenOptions::new().write(true).open(&wal_file).unwrap().set_len(len - 1).unwrap();
    let (mut recovered, report) = Engine::recover(program(), Options::default(), &wal_dir).unwrap();
    assert!(!report.status.is_clean());
    assert_eq!((report.inputs, recovered.tuple_count()), (0, 0));
    recovered.insert(src(1, 2)).unwrap();
    drop(recovered);
    let (again, report) = Engine::recover(program(), Options::default(), &wal_dir).unwrap();
    assert!(report.status.is_clean());
    assert_eq!(report.inputs, 1);
    assert_eq!(again.tuples("Src"), vec![src(1, 2)]);
    let _ = fs::remove_dir_all(&dir);
}
