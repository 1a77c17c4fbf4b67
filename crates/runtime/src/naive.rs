//! A naive fixpoint evaluator, used as a differential-testing oracle for
//! the incremental engine (batch and pipelined alike).
//!
//! It repeatedly evaluates every rule against the full store until nothing
//! changes, sharing no join, index or delta code with the engine. It
//! supports only state tables and no `f_unique()` — the fragment on which
//! set-semantics equivalence with the incremental engine is meaningful;
//! everything outside it (key replacement, events, deletions, derivation
//! sets) is pinned against
//! [`crate::engine::EvalStrategy::Pipelined`] instead.

use crate::engine::{instantiate, match_atom};
use mpr_ndlog::eval::{Env, PureFuncs};
use mpr_ndlog::{Program, Tuple};
use std::collections::BTreeSet;

/// Evaluate `program` over `base` tuples to fixpoint; returns all tuples
/// (base and derived). Panics if the fixpoint exceeds `max_iters` rounds.
pub fn naive_fixpoint(program: &Program, base: &[Tuple], max_iters: usize) -> BTreeSet<Tuple> {
    let mut all: BTreeSet<Tuple> = base.iter().cloned().collect();
    for _ in 0..max_iters {
        let mut new: Vec<Tuple> = Vec::new();
        for rule in &program.rules {
            let envs = join_all(rule, &all);
            'env: for mut env in envs {
                let mut funcs = PureFuncs;
                for a in &rule.assigns {
                    let Ok(v) = a.expr.eval(&env, &mut funcs) else {
                        continue 'env;
                    };
                    match env.get(&a.var) {
                        Some(existing) if existing != &v => continue 'env,
                        _ => {
                            env.insert(a.var.clone(), v);
                        }
                    }
                }
                for s in &rule.sels {
                    match s.eval(&env, &mut funcs) {
                        Ok(true) => {}
                        _ => continue 'env,
                    }
                }
                if let Some(head) = instantiate(&rule.head, &env) {
                    if !all.contains(&head) {
                        new.push(head);
                    }
                }
            }
        }
        if new.is_empty() {
            return all;
        }
        all.extend(new);
    }
    panic!("naive fixpoint did not converge in {max_iters} iterations");
}

fn join_all(rule: &mpr_ndlog::Rule, all: &BTreeSet<Tuple>) -> Vec<Env> {
    let mut envs = vec![Env::new()];
    for atom in &rule.body {
        let mut next = Vec::new();
        for env in &envs {
            for t in all.iter().filter(|t| *t.table == *atom.table) {
                if let Some(e2) = match_atom(atom, t, env) {
                    next.push(e2);
                }
            }
        }
        envs = next;
        if envs.is_empty() {
            break;
        }
    }
    envs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_ndlog::{parse_program, Value};

    #[test]
    fn transitive_closure_matches_hand_count() {
        let p = parse_program(
            "tc",
            r"
            r1 Reach(@C,X,Y) :- Link(@C,X,Y), X != Y.
            r2 Reach(@C,X,Z) :- Reach(@C,X,Y), Link(@C,Y,Z), X != Z.
            ",
        )
        .unwrap();
        let c = Value::str("C");
        let base: Vec<Tuple> = [(1, 2), (2, 3), (3, 4)]
            .iter()
            .map(|&(a, b)| Tuple::new("Link", c.clone(), vec![Value::Int(a), Value::Int(b)]))
            .collect();
        let out = naive_fixpoint(&p, &base, 50);
        let reach = out.iter().filter(|t| &*t.table == "Reach").count();
        assert_eq!(reach, 6);
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn divergence_is_detected() {
        let p = parse_program("inf", "r1 A(@C,Y) :- A(@C,X), X < 1000000, Y := X + 1.").unwrap();
        let base = vec![Tuple::new("A", Value::str("C"), vec![Value::Int(0)])];
        naive_fixpoint(&p, &base, 10);
    }
}
