//! A WAL engine never appends to a log it did not start. Each process
//! counts `engine-<n>` directories from 0, so the first engine of a new
//! process meets the directory the first engine of the last one left
//! behind. One test in its own binary, so the count starts at 0 here.

use mpr_ndlog::{parse_program, Program, Tuple, Value};
use mpr_runtime::{Durability, Engine, Options, WalOptions};
use std::sync::Arc;

fn program() -> Arc<Program> {
    Arc::new(
        parse_program(
            "fresh",
            r"
        materialize(Src, infinity, 2, keys(0,1)).
        materialize(Pick, infinity, 2, keys(0)).
        p1 Pick(@N,X,Y) :- Src(@N,X,Y).
        ",
        )
        .unwrap(),
    )
}

fn src(a: i64, b: i64) -> Tuple {
    Tuple::new("Src", Value::Int(1), vec![Value::Int(a), Value::Int(b)])
}

#[test]
fn a_new_engine_skips_a_log_an_earlier_process_left() {
    let parent = std::env::temp_dir().join(format!("mpr-fresh-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&parent);
    // The earlier process's engine-0, with one input of its own.
    let foreign = parent.join("engine-0");
    let (mut earlier, _) = Engine::recover(program(), Options::default(), &foreign).unwrap();
    earlier.insert(src(7, 7)).unwrap();
    drop(earlier);

    let opts = Options { durability: Durability::Wal(WalOptions::new(&parent)), ..Options::default() };
    let mut engine = Engine::shared(program(), opts).unwrap();
    engine.insert(src(9, 9)).unwrap();
    let dir = engine.wal_dir().expect("the WAL opened").to_path_buf();
    assert_ne!(dir, foreign, "the new engine took over the earlier log");

    let (recovered, report) = Engine::recover(program(), Options::default(), &dir).unwrap();
    assert_eq!(report.inputs, 1);
    assert_eq!(recovered.tuples("Src"), vec![src(9, 9)]);
    assert_eq!(recovered.tuples("Pick"), vec![Tuple::new("Pick", Value::Int(1), vec![Value::Int(9), Value::Int(9)])]);
    let _ = std::fs::remove_dir_all(&parent);
}
