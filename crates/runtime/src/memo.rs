//! The step memo: a batch engine answers an event it has already handled,
//! at an unchanged state generation, by replaying the first step's effects.
//!
//! A step — one event insertion run to fixpoint — is a function of the
//! event tuple, the live state and the clock. A controller's packet-ins
//! repeat a handful of events (the Q1 stream: 12 distinct events in
//! 250 000), and once the flow entries they install are live, a repeat
//! changes no state at all: it logs the event, derives what it derived
//! before, bumps support on tuples already live. So an event insertion's
//! step is filed under its event tuple, keyed by the hash the log interns
//! that tuple with (taken once, for both), and with it its effects: the
//! derived event instances, the support bumps, each with its rule, body
//! and origin, and the derivation count. A body or origin instance the
//! step minted is named by its place among the step's mints (the event
//! itself is 0), one that was live before it by its id.
//!
//! A step is filed only if it left the engine's *state generation* alone
//! — no tuple appeared, disappeared or was replaced and no aggregate group
//! moved — called no counting function (`f_unique`) and returned no error.
//! Any move of the generation empties the memo, so a filed step always
//! describes the state it would run against. Nor is the step of an event
//! the log had never seen filed: its first repeat files it. A stream of
//! distinct events (the fabric's punts) so costs the memo nothing — no
//! probe, no recording, no entry — and the memo holds at most one entry
//! per event tuple that ever repeated. A hit mints the event and
//! re-applies the effects in order, with fresh ids and the current time,
//! through the store and log calls the drain makes: the log, the store
//! with its support counts and the step result are what the drain writes.
//! A hit that would cross [`crate::Options::max_derivations`] runs the
//! drain instead, which fails where it fails.
//!
//! [`crate::EvalStrategy::Pipelined`] keeps no memo: it is the reference
//! every batch step, filed or replayed, is held to.

use crate::engine::{Engine, EvalStrategy, RuntimeError, StepResult};
use crate::log::{Origin, TupleId, TupleKind};
use crate::store::AddOutcome;
use mpr_ndlog::Tuple;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by a hash its caller computed — once, for the probe and for
/// the insert that may follow it. The values hold what tells the keys of
/// one hash apart.
pub type Prehashed<V> = HashMap<u64, V, BuildHasherDefault<PassHash>>;

/// Hands a [`Prehashed`] map's key through as its hash.
#[derive(Debug, Default)]
pub struct PassHash(u64);

impl Hasher for PassHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a prehashed map is keyed by u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An instance a filed step names.
#[derive(Debug, Clone, Copy)]
enum Inst {
    /// The `k`-th instance the step minted; the event itself is 0.
    Minted(u32),
    /// An instance live before the step.
    Live(TupleId),
}

/// What a derivation of a filed step made.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Head {
    /// A new instance of the event tuple interned under this ref.
    Event(u32),
    /// One more unit of support for this live state instance.
    Support(TupleId),
}

/// One entry of a filed step's effects, in the order the drain made them.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// Rule `rule` derived `head` in a firing at `origin`'s location, from
    /// the `body` [`Effect::Body`] entries that follow.
    Derive { head: Head, rule: u32, origin: Inst, body: u16 },
    Body(Inst),
}

/// A filed step.
#[derive(Debug)]
struct Filed {
    /// The log's ref of the event tuple.
    event: u32,
    derivations: u64,
    effects: Box<[Effect]>,
}

/// The filed steps of the current state generation, and the step being
/// recorded (module docs).
#[derive(Debug, Default)]
pub(crate) struct StepMemo {
    filed: Prehashed<Filed>,
    /// While a step is recorded: its event's id.
    taping: Option<TupleId>,
    tape: Vec<Effect>,
    /// A replayed derivation's body, reused.
    body: Vec<TupleId>,
    steps: u64,
    hits: u64,
}

impl StepMemo {
    /// The state generation moved: no filed step replays exactly any more,
    /// and the one being recorded will not be filed.
    pub(crate) fn state_moved(&mut self) {
        self.filed.clear();
        self.taping = None;
    }

    /// Record a derivation of the step being recorded, if one is.
    pub(crate) fn tape(&mut self, head: Head, (rule, body, origin): (usize, &[TupleId], Origin<'_>)) {
        let Some(event) = self.taping else { return };
        // A firing at a given node is an aggregate's, which moves state.
        let Origin::LocOf(origin) = origin else {
            self.taping = None;
            return;
        };
        let inst = |tid: TupleId| match tid.checked_sub(event) {
            Some(k) => Inst::Minted(u32::try_from(k).expect("fewer than 2^32 mints per step")),
            None => Inst::Live(tid),
        };
        let (rule, len) = (rule as u32, u16::try_from(body.len()).expect("a rule body has fewer than 2^16 atoms"));
        self.tape.push(Effect::Derive { head, rule, origin: inst(origin), body: len });
        self.tape.extend(body.iter().map(|&b| Effect::Body(inst(b))));
    }
}

impl Engine {
    /// Event insertions evaluated by a drain, under either strategy.
    pub fn steps(&self) -> u64 {
        self.memo.steps
    }

    /// Event insertions answered from the step memo (batch only).
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits
    }

    /// Insert the event `tuple`, at the current time (module docs).
    pub(crate) fn insert_event(&mut self, tuple: Tuple) -> Result<StepResult, RuntimeError> {
        let hash = self.log.hash_tuple(&tuple);
        let (tref, seen) = self.log.intern(&tuple, hash);
        let memoize = seen && self.strategy() == EvalStrategy::Batch;
        let tuple = if memoize {
            match self.replay_filed(tuple, hash, tref) {
                Ok(result) => return Ok(result),
                Err(missed) => missed,
            }
        } else {
            tuple
        };
        self.memo.steps += 1;
        let event = self.begin_event(tref);
        let mut result = StepResult::default();
        result.appeared.push(tuple.clone());
        let mut queue = std::mem::take(&mut self.spare_queue);
        queue.push_back((event, tuple));
        let issued = self.funcs.issued();
        if memoize {
            self.memo.tape.clear();
            self.memo.taping = Some(event);
        }
        let drained = self.drain(queue, &mut result);
        let taped = self.memo.taping.take().is_some();
        drained?;
        if taped && self.funcs.issued() == issued {
            let effects = self.memo.tape.as_slice().into();
            self.memo.filed.insert(hash, Filed { event: tref, derivations: result.derivations, effects });
        }
        Ok(result)
    }

    /// Answer `event`, interned under `tref`, by replaying its filed step,
    /// if one is filed and fits the derivation budget; hand it back
    /// otherwise.
    fn replay_filed(&mut self, event: Tuple, hash: u64, tref: u32) -> Result<StepResult, Tuple> {
        let filed = std::mem::take(&mut self.memo.filed);
        let budget = self.opts.max_derivations.saturating_sub(self.total_derivations);
        let hit = filed.get(&hash).filter(|f| f.event == tref && f.derivations <= budget);
        let answer = match hit {
            Some(f) => Ok(self.replay(f, event)),
            None => Err(event),
        };
        self.memo.filed = filed;
        answer
    }

    fn replay(&mut self, filed: &Filed, event: Tuple) -> StepResult {
        self.memo.hits += 1;
        let first = self.begin_event(filed.event);
        let mut result = StepResult { appeared: vec![event], derivations: filed.derivations, ..StepResult::default() };
        self.total_derivations += filed.derivations;
        let at = |inst: Inst| match inst {
            Inst::Minted(k) => first + TupleId::from(k),
            Inst::Live(tid) => tid,
        };
        let mut body = std::mem::take(&mut self.memo.body);
        let mut effects = filed.effects.iter();
        while let Some(effect) = effects.next() {
            let Effect::Derive { head, rule, origin, body: len } = *effect else {
                unreachable!("a body follows its derivation");
            };
            body.clear();
            body.extend(effects.by_ref().take(usize::from(len)).map(|e| match *e {
                Effect::Body(inst) => at(inst),
                Effect::Derive { .. } => unreachable!("a derivation has its whole body"),
            }));
            let firing = (rule as usize, &body[..], Origin::LocOf(at(origin)));
            match head {
                Head::Event(tref) => {
                    let tid = self.mint_interned(tref, TupleKind::Event);
                    self.derive_event(tid, firing);
                    result.appeared.push(self.log.tuple(tid).clone());
                }
                Head::Support(tid) => {
                    let added = self.store.add(self.log.tuple(tid), false, &mut || unreachable!("a filed step mints no state"));
                    debug_assert_eq!(added, AddOutcome::SupportOnly(tid));
                    self.register_derivation(tid, firing);
                }
            }
        }
        self.memo.body = body;
        result
    }
}
