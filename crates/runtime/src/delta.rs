//! Round ids for batch semi-naive iteration.
//!
//! Classic semi-naive evaluation joins each round's delta against what
//! earlier rounds merged: with the delta tuple at body position `i`,
//! positions `j > i` may not match the round's own delta, so each new body
//! combination fires exactly once. The join therefore needs one fact per
//! tuple instance — was it made visible by the round being joined, by
//! some other round, or not at all (still pending, or dead) — and this
//! tracker keeps exactly that: the id of the round that made each tuple
//! visible, and the open round's.
//!
//! The engine drives the lifecycle: [`DeltaTracker::begin_round`] stamps a
//! pending batch with a fresh round id and opens it,
//! [`DeltaTracker::end_round`] closes it — its tuples then read as merged,
//! since no later round reuses the id — and [`DeltaTracker::retire`]
//! forgets a tuple that died (cascade retraction or primary-key
//! replacement).
//!
//! At most one round is open: a step's rounds follow one another, and
//! nothing a round fires runs a fixpoint of its own (retraction fires no
//! rule), so no round begins while another is open.
//!
//! Tuple instance ids are engine-global and dense, so the tracker stores
//! one round id per tuple id in a flat vector, and the join loop's
//! visibility test ([`DeltaTracker::visibility`]) is an array read.

use crate::log::TupleId;

/// What the join loop may do with one tuple instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Made visible by no round: never promoted (still pending), or retired.
    Absent,
    /// Made visible by the open round — the tuples the positional
    /// discipline excludes at body positions after the delta slot.
    Current,
    /// Made visible by a finished round; joinable at every position.
    Merged,
}

/// The round bookkeeping of a batch engine.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    /// Per tuple id, the round that made it visible; 0 = never made
    /// visible, or retired.
    round_of: Vec<u64>,
    /// Rounds begun so far, which is also the last id handed out. A `u64`
    /// never wraps: a `u32` would after about 36 minutes at 2 M rounds a
    /// second.
    rounds: u64,
    /// The open round's id; 0 = no round is open.
    open: u64,
}

impl DeltaTracker {
    /// Open a round over `batch`: its tuples become visible as
    /// [`Visibility::Current`] until the round ends. Tuples already
    /// retired are the caller's concern (the engine skips dead instances
    /// before joining). No round may be open (a debug assertion).
    pub fn begin_round(&mut self, batch: impl IntoIterator<Item = TupleId>) {
        debug_assert_eq!(self.open, 0, "a round began while round {} was open", self.open);
        self.rounds += 1;
        for tid in batch {
            let i = tid as usize;
            if self.round_of.len() <= i {
                self.round_of.resize(i + 1, 0);
            }
            debug_assert_eq!(self.round_of[i], 0, "tuple {tid} joined a round while already visible");
            self.round_of[i] = self.rounds;
        }
        self.open = self.rounds;
    }

    /// Close the open round: its tuples become [`Visibility::Merged`].
    ///
    /// # Panics
    /// Panics if no round is open.
    pub fn end_round(&mut self) {
        assert_ne!(self.open, 0, "end_round without begin_round");
        self.open = 0;
    }

    /// What the join loop may do with `tid` — a single array read.
    pub fn visibility(&self, tid: TupleId) -> Visibility {
        match self.round_of.get(tid as usize).copied().unwrap_or(0) {
            0 => Visibility::Absent,
            round if round == self.open => Visibility::Current,
            _ => Visibility::Merged,
        }
    }

    /// Forget a dead tuple instance: it reads as [`Visibility::Absent`].
    pub fn retire(&mut self, tid: TupleId) {
        if let Some(round) = self.round_of.get_mut(tid as usize) {
            *round = 0;
        }
    }

    /// Is a round open?
    pub fn is_open(&self) -> bool {
        self.open != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round's batch reads current (recent) while the round is open and
    /// merged (stable) once it ends.
    #[test]
    fn round_lifecycle_moves_recent_to_stable() {
        let mut d = DeltaTracker::default();
        assert_eq!(d.visibility(0), Visibility::Absent);
        d.begin_round([0, 1]);
        assert_eq!(d.visibility(0), Visibility::Current);
        assert_eq!(d.visibility(1), Visibility::Current);
        assert_eq!(d.visibility(2), Visibility::Absent, "not in the batch");
        d.end_round();
        assert_eq!(d.visibility(0), Visibility::Merged);
        assert!(!d.is_open());
        // A later round does not make an earlier round's tuples current.
        d.begin_round([2]);
        assert_eq!(d.visibility(0), Visibility::Merged);
        assert_eq!(d.visibility(2), Visibility::Current);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a round began while round 1 was open")]
    fn a_round_never_begins_inside_another() {
        let mut d = DeltaTracker::default();
        d.begin_round([0]);
        d.begin_round([1]);
    }

    /// Retiring forgets a tuple whether a finished round or the open one
    /// made it visible.
    #[test]
    fn retire_removes_from_all_partitions() {
        let mut d = DeltaTracker::default();
        d.begin_round([0]);
        d.end_round();
        d.begin_round([1]);
        d.retire(0);
        d.retire(1);
        d.retire(7); // never seen: a no-op
        assert_eq!(d.visibility(0), Visibility::Absent);
        assert_eq!(d.visibility(1), Visibility::Absent);
        d.end_round();
        assert_eq!(d.visibility(1), Visibility::Absent);
    }
}
