//! Property tests for the solver: `solve` returns exactly the first
//! satisfying assignment of a brute-force lexicographic enumeration over
//! the declared domains, its witnesses satisfy the pool, and negation
//! flips a comparison's truth.

use mpr_ndlog::{CmpOp, Value};
use mpr_solver::{Assignment, Constraint, Pool, STerm};
use proptest::prelude::*;

const VARS: [&str; 4] = ["x", "y", "z", "w"];

fn sterm() -> impl Strategy<Value = STerm> {
    let leaf = prop_oneof![
        prop::sample::select(VARS.to_vec()).prop_map(STerm::var),
        (-8i64..8).prop_map(STerm::int),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| STerm::Add(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| STerm::Sub(Box::new(l), Box::new(r))),
            (inner.clone(), inner).prop_map(|(l, r)| STerm::Mul(Box::new(l), Box::new(r))),
        ]
    })
}

fn constraint() -> impl Strategy<Value = Constraint> {
    (sterm(), prop::sample::select(CmpOp::ALL.to_vec()), sterm())
        .prop_map(|(l, op, r)| Constraint::cmp(l, op, r))
}

/// A domain per variable: some integers, in no particular order, possibly
/// none.
fn domains() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec((-6i64..6).prop_map(Value::Int), 0..5), VARS.len())
}

fn full_assignment() -> impl Strategy<Value = Assignment> {
    prop::collection::vec(-8i64..8, 4).prop_map(|vals| {
        let mut a = Assignment::new();
        for (v, val) in VARS.iter().zip(vals) {
            a.set(*v, Value::Int(val));
        }
        a
    })
}

fn pool(cs: Vec<Constraint>, doms: &[Vec<Value>], declared: usize) -> Pool {
    let mut p = Pool::new();
    for c in cs {
        p.push(c);
    }
    for (v, d) in VARS.iter().zip(doms).take(declared) {
        p.set_domain(*v, d.clone());
    }
    p
}

/// Every assignment of the pool's variables to their declared values, in
/// lexicographic order (variables by name, values in declared order), and
/// the first that satisfies every constraint.
fn first_by_enumeration(p: &Pool) -> Option<Assignment> {
    let vars: Vec<String> = p.vars().into_iter().collect();
    let sizes: Vec<usize> = vars.iter().map(|v| p.domains.get(v).map_or(0, Vec::len)).collect();
    let total: usize = sizes.iter().product();
    (0..total)
        .map(|mut k| {
            // `k` in mixed radix, the last variable's digit least significant.
            let mut asg = Assignment::new();
            for (i, v) in vars.iter().enumerate().rev() {
                asg.set(v.clone(), p.domains[v][k % sizes[i]].clone());
                k /= sizes[i];
            }
            asg
        })
        .find(|asg| p.satisfied_by(asg))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solve_is_the_first_assignment_in_lexicographic_order(
        cs in prop::collection::vec(constraint(), 0..4),
        doms in domains(),
        declared in 0usize..=4,
    ) {
        let p = pool(cs, &doms, declared);
        prop_assert_eq!(p.solve(), first_by_enumeration(&p));
    }

    #[test]
    fn sat_witnesses_satisfy(cs in prop::collection::vec(constraint(), 1..4), doms in domains()) {
        let p = pool(cs, &doms, VARS.len());
        if let Some(asg) = p.solve() {
            prop_assert!(p.satisfied_by(&asg), "witness {asg} violates pool");
            for (v, val) in asg.iter() {
                prop_assert!(p.domains[v].contains(val), "{v}={val} is not in its domain");
            }
        }
    }

    #[test]
    fn negation_flips_ground_truth(c in constraint(), asg in full_assignment()) {
        let v = c.eval_partial(&asg);
        let nv = c.negate().eval_partial(&asg);
        // Fully bound integer assignments always decide comparisons.
        if let (Some(a), Some(b)) = (v, nv) {
            prop_assert_ne!(a, b, "negation did not flip: {}", c);
        }
    }

    #[test]
    fn solver_is_complete_for_witnessed_pools(cs in prop::collection::vec(constraint(), 1..4), asg in full_assignment()) {
        // Build a pool that `asg` satisfies by construction, over domains
        // that hold its values: the solver must find *some* witness (not
        // necessarily the same one).
        let mut p = Pool::new();
        for c in cs {
            if c.eval_partial(&asg) == Some(true) {
                p.push(c);
            }
        }
        prop_assume!(!p.constraints.is_empty());
        for v in VARS {
            let mut dom: Vec<Value> = (-8..8).map(Value::Int).collect();
            dom.retain(|val| Some(val) != asg.get(v));
            dom.push(asg.get(v).cloned().expect("full"));
            p.set_domain(v, dom);
        }
        prop_assert!(p.solve().is_some(), "pool satisfiable by {asg} reported unsat");
    }
}
