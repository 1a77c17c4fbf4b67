//! A minimal scoped worker pool for the backtester's embarrassingly
//! parallel outer loop.
//!
//! Candidate replays are independent by construction — each builds a fresh
//! controller and network from a [`crate::BacktestSetup`] — so the
//! per-candidate backtest ([`crate::replay_candidates`]) fans out over
//! [`par_map_contained`]. Results come back index-aligned with the input,
//! so callers see exactly the ordering a sequential loop produces; only
//! wall-clock changes. Implemented directly on [`std::thread::scope`]: no
//! work stealing, just a striped static partition, which is the right
//! shape when every item costs about the same (replays of one workload)
//! and keeps the dependency footprint at zero.

/// Worker count for backtest fan-out: the machine's available
/// parallelism. `1` disables threading entirely.
pub fn workers() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Apply `f` to every item, possibly across [`workers()`] scoped threads,
/// returning results in input order. `f` receives `(index, &item)`.
///
/// Runs inline (no threads spawned) when the pool has one worker or there
/// is at most one item. Worker `w` takes items `w, w + k, w + 2k, …` — a
/// striped partition, so runtimes even out when item cost drifts with
/// index (e.g. candidates sorted by complexity).
///
/// Panics are contained per item: an `f` that panics yields `None` for
/// that item while every other item completes normally — one pathological
/// candidate must not take down the whole repair loop.
pub fn par_map_contained<T, R, F>(items: &[T], f: F) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let call = |i: usize, t: &T| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t))).ok()
    };
    let k = workers().min(items.len());
    if k <= 1 {
        return items.iter().enumerate().map(|(i, t)| call(i, t)).collect();
    }
    let mut slots: Vec<Option<Option<R>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let call = &call;
        let handles: Vec<_> = (0..k)
            .map(|w| {
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(k)
                        .map(|(i, t)| (i, call(i, t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // Containment happens per item inside `call`; a stripe-level
            // join error would mean the catch_unwind itself unwound,
            // which cannot happen for a caught payload.
            if let Ok(chunk) = h.join() {
                for (i, r) in chunk {
                    slots[i] = Some(r);
                }
            }
        }
    });
    slots.into_iter().map(|r| r.flatten()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_aligned() {
        let items: Vec<i64> = (0..37).collect();
        let out = par_map_contained(&items, |i, &x| {
            assert_eq!(i as i64, x);
            x * x
        });
        assert_eq!(out, items.iter().map(|x| Some(x * x)).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let none: Vec<u8> = vec![];
        assert!(par_map_contained(&none, |_, &x| x).is_empty());
        assert_eq!(par_map_contained(&[41u8], |_, &x| x + 1), vec![Some(42)]);
    }

    #[test]
    fn matches_sequential_map_under_any_worker_count() {
        let items: Vec<String> = (0..23).map(|i| format!("item{i}")).collect();
        let seq: Vec<Option<usize>> = items.iter().map(|s| Some(s.len())).collect();
        let par = par_map_contained(&items, |_, s| s.len());
        assert_eq!(par, seq);
    }

    #[test]
    fn contained_panics_become_none_and_spare_the_rest() {
        // Silence the expected panic messages from worker threads.
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<i64> = (0..19).collect();
        let out = par_map_contained(&items, |_, &x| {
            if x % 5 == 3 {
                panic!("poisoned item {x}");
            }
            x * 2
        });
        std::panic::set_hook(default);
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 3 {
                assert_eq!(*r, None, "poisoned item {i} must be contained");
            } else {
                assert_eq!(*r, Some(i as i64 * 2));
            }
        }
    }
}
