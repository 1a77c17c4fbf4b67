//! Per-relation delta partitions for batch semi-naive iteration.
//!
//! Classic semi-naive evaluation splits every relation into three
//! partitions:
//!
//! - **stable** — tuples merged in some earlier round; all joins between
//!   exclusively-stable tuples have already fired;
//! - **recent** — the round currently being joined (the Δ of the textbook
//!   formulation);
//! - **delta** — tuples produced during the current round, queued to become
//!   the next round's *recent* set.
//!
//! The engine drives the lifecycle: [`DeltaTracker::begin_round`] promotes
//! a pending batch to *recent*, [`DeltaTracker::end_round`] merges *recent*
//! into *stable*, and [`DeltaTracker::retire`] drops a tuple that died
//! (cascade retraction or primary-key replacement) from whichever partition
//! holds it. The join discipline reads [`DeltaTracker::is_recent`]: when
//! the delta tuple sits at body position `i`, positions `j > i` are
//! restricted to stable tuples, so each new body combination fires exactly
//! once per round instead of once per participating delta tuple.
//!
//! Rounds nest: an aggregate re-emission inside a cascade runs its own
//! fixpoint while an outer round is suspended, so frames form a stack and a
//! tuple is "recent" when any active frame holds it.
//!
//! Tuple instance ids are engine-global and dense, so the tracker stores
//! one slot per id in a flat vector — the join loop's visibility test
//! ([`DeltaTracker::visibility`]) is an array read, with no string hashing
//! on the probe path. Table names are interned once per relation and only
//! consulted by the name-taking diagnostic API.

use crate::log::TupleId;
use std::collections::HashMap;

/// One relation's stable/recent partition sizes (diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDeltaStats {
    /// Table name.
    pub table: String,
    /// Tuples merged into the stable partition.
    pub stable: usize,
    /// Tuples in the recent partition of some active round.
    pub recent: usize,
}

/// Where one tuple instance currently sits, as seen by the join loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Not in any partition: never registered, retired, or still pending.
    Absent,
    /// Merged into the stable partition by some finished round.
    Stable,
    /// Recent in the innermost active round — the tuples the positional
    /// discipline excludes at body positions after the delta slot.
    RecentInnermost,
    /// Recent in a suspended outer round; joinable at every position.
    RecentOuter,
}

/// Partition membership of one tuple instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Untracked,
    Stable,
    /// Recent in the frame with this stack index.
    Recent(u32),
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    state: State,
    /// Interned id of the table the instance was registered under.
    table: u32,
}

const EMPTY_SLOT: Slot = Slot { state: State::Untracked, table: 0 };

/// The stable/recent/delta bookkeeping of a batch engine.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    /// One slot per tuple instance id.
    slots: Vec<Slot>,
    /// Table name interner (ids index `tables` and the counters).
    table_ids: HashMap<String, u32>,
    tables: Vec<String>,
    /// Stack of active rounds, innermost last: the instances each round
    /// promoted to recent.
    frames: Vec<Vec<TupleId>>,
    /// Per-table partition sizes, indexed by interned table id.
    stable_count: Vec<usize>,
    recent_count: Vec<usize>,
}

impl DeltaTracker {
    fn intern(&mut self, table: &str) -> u32 {
        if let Some(&id) = self.table_ids.get(table) {
            return id;
        }
        let id = self.tables.len() as u32;
        self.table_ids.insert(table.to_string(), id);
        self.tables.push(table.to_string());
        self.stable_count.push(0);
        self.recent_count.push(0);
        id
    }

    fn slot(&self, tid: TupleId) -> Slot {
        self.slots.get(tid as usize).copied().unwrap_or(EMPTY_SLOT)
    }

    /// `true` when the slot matches `table` — the name-taking API never
    /// reports an instance under a table it was not registered with.
    fn named(&self, slot: Slot, table: &str) -> bool {
        self.tables.get(slot.table as usize).is_some_and(|t| t == table)
    }

    /// Start a round over `batch`: the batch becomes the innermost recent
    /// partition. Tuples already retired are the caller's concern (the
    /// engine filters dead instances before joining).
    pub fn begin_round<I, S>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (TupleId, S)>,
        S: AsRef<str>,
    {
        let frame_idx = self.frames.len() as u32;
        let mut frame = Vec::new();
        for (tid, table) in batch {
            let table = self.intern(table.as_ref());
            debug_assert!(
                self.slot(tid).state == State::Untracked,
                "tuple {tid} joined a round while already tracked"
            );
            if self.slots.len() <= tid as usize {
                self.slots.resize(tid as usize + 1, EMPTY_SLOT);
            }
            self.slots[tid as usize] = Slot { state: State::Recent(frame_idx), table };
            self.recent_count[table as usize] += 1;
            frame.push(tid);
        }
        self.frames.push(frame);
    }

    /// Finish the innermost round: its recent tuples become stable.
    ///
    /// # Panics
    /// Panics if no round is active.
    pub fn end_round(&mut self) {
        let frame = self.frames.pop().expect("end_round without begin_round");
        let frame_idx = self.frames.len() as u32;
        for tid in frame {
            let slot = &mut self.slots[tid as usize];
            // Retired mid-round instances left the partitions already.
            if slot.state == State::Recent(frame_idx) {
                slot.state = State::Stable;
                self.recent_count[slot.table as usize] -= 1;
                self.stable_count[slot.table as usize] += 1;
            }
        }
    }

    /// Partition membership of one instance, for the join loop's
    /// visibility test — a single array read.
    pub fn visibility(&self, tid: TupleId) -> Visibility {
        match self.slot(tid).state {
            State::Untracked => Visibility::Absent,
            State::Stable => Visibility::Stable,
            State::Recent(f) if f as usize + 1 == self.frames.len() => {
                Visibility::RecentInnermost
            }
            State::Recent(_) => Visibility::RecentOuter,
        }
    }

    /// `true` while `tid` of `table` sits in the recent partition of any
    /// active round.
    pub fn is_recent(&self, table: &str, tid: TupleId) -> bool {
        let slot = self.slot(tid);
        matches!(slot.state, State::Recent(_)) && self.named(slot, table)
    }

    /// `true` while `tid` of `table` is recent in the *innermost* active
    /// round. The positional join discipline excludes only these: a
    /// suspended outer round's recent tuples must stay joinable from a
    /// nested fixpoint (the outer round cannot revisit combinations with
    /// tuples that did not exist when its deltas fired).
    pub fn in_current_round(&self, table: &str, tid: TupleId) -> bool {
        self.visibility(tid) == Visibility::RecentInnermost
            && self.named(self.slot(tid), table)
    }

    /// Drop a dead tuple instance from every partition.
    pub fn retire(&mut self, table: &str, tid: TupleId) {
        let slot = self.slot(tid);
        if !self.named(slot, table) {
            return;
        }
        match slot.state {
            State::Untracked => return,
            State::Stable => self.stable_count[slot.table as usize] -= 1,
            State::Recent(_) => self.recent_count[slot.table as usize] -= 1,
        }
        self.slots[tid as usize].state = State::Untracked;
    }

    /// Number of active (nested) rounds.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Per-relation partition sizes, sorted by table name.
    pub fn stats(&self) -> Vec<RelationDeltaStats> {
        let mut stats: Vec<RelationDeltaStats> = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| RelationDeltaStats {
                table: t.clone(),
                stable: self.stable_count[i],
                recent: self.recent_count[i],
            })
            .collect();
        stats.sort_by(|a, b| a.table.cmp(&b.table));
        stats
    }

    /// Total tuples across stable partitions.
    pub fn stable_len(&self) -> usize {
        self.stable_count.iter().sum()
    }

    /// Total tuples across recent partitions of active rounds.
    pub fn recent_len(&self) -> usize {
        self.recent_count.iter().sum()
    }

    /// `true` when `tid` of `table` is tracked in the stable partition.
    pub fn is_stable(&self, table: &str, tid: TupleId) -> bool {
        let slot = self.slot(tid);
        slot.state == State::Stable && self.named(slot, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_lifecycle_moves_recent_to_stable() {
        let mut d = DeltaTracker::default();
        d.begin_round(vec![(0, "A"), (1, "B")]);
        assert!(d.is_recent("A", 0));
        assert!(!d.is_stable("A", 0));
        assert_eq!(d.visibility(0), Visibility::RecentInnermost);
        assert_eq!(d.recent_len(), 2);
        d.end_round();
        assert!(!d.is_recent("A", 0));
        assert!(d.is_stable("A", 0));
        assert_eq!(d.visibility(0), Visibility::Stable);
        assert_eq!(d.stable_len(), 2);
        assert_eq!(d.recent_len(), 0);
    }

    #[test]
    fn nested_rounds_stack() {
        let mut d = DeltaTracker::default();
        d.begin_round(vec![(0, "A")]);
        d.begin_round(vec![(1, "A")]);
        assert_eq!(d.depth(), 2);
        assert!(d.is_recent("A", 0), "outer frame still recent");
        assert!(d.is_recent("A", 1));
        assert!(d.in_current_round("A", 1));
        assert!(!d.in_current_round("A", 0), "outer recent is not innermost");
        assert_eq!(d.visibility(0), Visibility::RecentOuter);
        assert_eq!(d.visibility(1), Visibility::RecentInnermost);
        d.end_round();
        assert!(d.is_stable("A", 1));
        assert!(d.is_recent("A", 0));
        assert_eq!(d.visibility(0), Visibility::RecentInnermost);
        d.end_round();
        assert!(d.is_stable("A", 0));
    }

    #[test]
    fn retire_removes_from_all_partitions() {
        let mut d = DeltaTracker::default();
        d.begin_round(vec![(0, "A")]);
        d.end_round();
        d.begin_round(vec![(1, "A")]);
        d.retire("A", 0);
        d.retire("A", 1);
        assert!(!d.is_stable("A", 0));
        assert!(!d.is_recent("A", 1));
        assert_eq!(d.visibility(0), Visibility::Absent);
        assert_eq!(d.visibility(1), Visibility::Absent);
        d.end_round();
        assert_eq!(d.stable_len(), 0);
    }

    #[test]
    fn retire_checks_the_table_name() {
        let mut d = DeltaTracker::default();
        d.begin_round(vec![(0, "A")]);
        d.end_round();
        d.retire("B", 0); // wrong table: a no-op
        assert!(d.is_stable("A", 0));
        assert!(!d.is_stable("B", 0));
        assert_eq!(d.stable_len(), 1);
    }

    #[test]
    fn stats_report_per_relation() {
        let mut d = DeltaTracker::default();
        d.begin_round(vec![(0, "A"), (1, "A")]);
        d.end_round();
        d.begin_round(vec![(2, "B")]);
        let stats = d.stats();
        assert_eq!(
            stats,
            vec![
                RelationDeltaStats { table: "A".into(), stable: 2, recent: 0 },
                RelationDeltaStats { table: "B".into(), stable: 0, recent: 1 },
            ]
        );
    }
}
