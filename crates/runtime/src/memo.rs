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
//! and the delta that fired it, and the derivation count. A body or delta
//! instance the step minted is named by its place among the step's mints
//! (the event itself is 0), one that was live before it by its id.
//!
//! A step is filed only if it left the engine's *state generation* alone
//! — no tuple appeared, disappeared or was replaced — called no counting
//! function (`f_unique`) and returned no error.
//! Any move of the generation empties the memo, so a filed step always
//! describes the state it would run against. Nor is the step of an event
//! the log had never seen filed: its first repeat files it. A stream of
//! distinct events (the fabric's punts) so costs this memo nothing, and it
//! holds at most one entry per event tuple that ever repeated. A first
//! occurrence [`QuietSteps`] answers (below) is logged and answered with
//! itself, the rows, id and time the drain would have written
//! ([`Engine::unheard`]). A hit mints the event and re-applies the
//! effects in order, with fresh ids and the current time,
//! through the store and log calls the drain makes: the log, the store
//! with its support counts and the step result are what the drain writes.
//! A filed step returned `Ok`, so it fits the per-step budget,
//! [`crate::Options::max_derivations`], and so does its replay.
//!
//! [`crate::EvalStrategy::Pipelined`] keeps no memo: it is the reference
//! every batch step, filed, replayed or answered as quiet, is held to.
//!
//! # Steps that change nothing
//!
//! [`QuietSteps`] is the rule by which the engine answers an event's first
//! occurrence and the joint replay of `mpr_backtest` a punt. A tuple whose
//! dispatch group has no trigger is answered at once, with no key. Any
//! other is keyed on the caller's word (the joint replay's tags), its table
//! and group, and what the group's triggers read of it before a complete
//! match ([`crate::GroupReads`]): a bit per prefilter test, the values
//! at the read columns. A step with no complete match that moved neither an
//! `f_unique` id nor the caller's standing counter (the engine's state
//! generation, the joint replay's fresh admissions) is filed, and a
//! key-equal tuple is answered: against one state nothing else of it is
//! read before a complete match. The memo empties when the counter moves.

use crate::batch::GroupReads;
use crate::engine::{Engine, EvalStrategy, RuntimeError, StepResult};
use crate::log::{TupleId, TupleKind};
use crate::store::AddOutcome;
use mpr_ndlog::{Tuple, Value};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

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
    /// Rule `rule` derived `head` in a firing of the delta `origin`, from
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
    /// How often the state generation moved.
    generation: u64,
    /// First occurrences' steps that changed nothing.
    quiet: QuietSteps,
}

impl StepMemo {
    /// The state generation moved: no filed step replays exactly any more,
    /// and the one being recorded will not be filed.
    pub(crate) fn state_moved(&mut self) {
        self.filed.clear();
        self.taping = None;
        self.generation += 1;
    }

    /// Record a derivation of the step being recorded, if one is.
    pub(crate) fn tape(&mut self, head: Head, (rule, body, origin): (usize, &[TupleId], TupleId)) {
        let Some(event) = self.taping else { return };
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

    /// First occurrences answered without a drain by [`QuietSteps`] (batch only).
    pub fn unheard(&self) -> u64 {
        self.memo.quiet.answered
    }

    /// Insert the event `tuple`, at the current time (module docs).
    pub(crate) fn insert_event(&mut self, tuple: Tuple) -> Result<StepResult, RuntimeError> {
        let hash = self.log.hash_tuple(&tuple);
        let (tref, seen) = self.log.intern(&tuple, hash);
        let batch = self.strategy() == EvalStrategy::Batch;
        let mut quiet = None;
        if !seen && batch {
            let rule = |ri: usize| self.rules[ri].compiled.get(&self.program.rules[ri], self.store.catalog());
            let dispatch = self.index.as_ref().and_then(|i| i.get(&tuple.table));
            let heard = dispatch.map(|d| (d, d.group_of(&tuple))).filter(|(d, g)| d.triggers_in(*g).next().is_some());
            let heard = heard.map(|(d, group)| (group, d.reads(group, rule)));
            let Some(key) = self.memo.quiet.lookup(0, &tuple, heard, self.memo.generation) else {
                self.begin_event(tref);
                return Ok(StepResult { appeared: vec![tuple], ..StepResult::default() });
            };
            quiet = key;
        }
        let memoize = seen && batch;
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
        let (issued, generation) = (self.funcs.issued(), self.memo.generation);
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
        let unchanged = (result.derivations, self.memo.generation, self.funcs.issued()) == (0, generation, issued);
        if let Some(key) = quiet.filter(|_| unchanged) {
            self.memo.quiet.file(key);
        }
        Ok(result)
    }

    /// Answer `event`, interned under `tref`, by replaying its filed step,
    /// if one is filed; hand it back otherwise.
    fn replay_filed(&mut self, event: Tuple, hash: u64, tref: u32) -> Result<StepResult, Tuple> {
        let filed = std::mem::take(&mut self.memo.filed);
        let hit = filed.get(&hash).filter(|f| f.event == tref);
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
            let firing = (rule as usize, &body[..], at(origin));
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

/// A quiet step's key (module docs) and its hash, which leaves the table
/// out: word, table, dispatch group, test bits, values at the read columns.
#[derive(Debug, Clone)]
pub struct QuietKey {
    hash: u64,
    word: u64,
    table: Arc<str>,
    group: Option<usize>,
    bits: u64,
    values: Vec<Option<Value>>,
}

/// Steps that changed nothing, filed while the caller's count `under` stands.
#[derive(Debug, Default)]
pub struct QuietSteps {
    filed: Prehashed<QuietKey>,
    hasher: RandomState,
    under: u64,
    answered: u64,
}

impl QuietSteps {
    /// Tuples answered without a step.
    pub fn answered(&self) -> u64 {
        self.answered
    }

    /// `None` if the step of `delta` for `word` would change nothing; else
    /// the key to file it under, if it has one. `heard` is `None` where no
    /// trigger of its table hears `delta`, else its dispatch group and what
    /// the group reads (`None` if a rule of it does not compile);
    /// `standing` is the caller's count of changes to the state.
    pub fn lookup(
        &mut self,
        word: u64,
        delta: &Tuple,
        heard: Option<(Option<usize>, Option<&GroupReads>)>,
        standing: u64,
    ) -> Option<Option<QuietKey>> {
        let Some((group, reads)) = heard else {
            self.answered += 1;
            return None;
        };
        if std::mem::replace(&mut self.under, standing) != standing {
            self.filed.clear();
        }
        let Some(GroupReads { tests, cols }) = reads else {
            return Some(None);
        };
        let bits = tests.iter().enumerate().fold(0u64, |bits, (i, t)| bits | u64::from(t.passes(delta)) << i);
        let mut hasher = self.hasher.build_hasher();
        (word, group, bits).hash(&mut hasher);
        cols.iter().for_each(|&c| delta.column(c).hash(&mut hasher));
        let hash = hasher.finish();
        let same = |f: &QuietKey| {
            (f.word, &f.table, f.group, f.bits) == (word, &delta.table, group, bits)
                && cols.iter().zip(&f.values).all(|(&c, v)| delta.column(c) == v.as_ref())
        };
        if self.filed.get(&hash).is_some_and(same) {
            self.answered += 1;
            return None;
        }
        let values = cols.iter().map(|&c| delta.column(c).cloned()).collect();
        Some(Some(QuietKey { hash, word, table: Arc::clone(&delta.table), group, bits, values }))
    }

    /// File the step looked up under `key`, which changed nothing.
    pub fn file(&mut self, key: QuietKey) {
        self.filed.insert(key.hash, key);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, EvalStrategy, Options};
    use mpr_ndlog::{parse_program, Tuple, Value};

    /// Fig. 2's rules key the PacketIn dispatch on the switch: one group
    /// for switch 1, one for switch 2, no residual trigger.
    fn engine(strategy: EvalStrategy) -> Engine {
        let p = parse_program(
            "fig2",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            ",
        )
        .unwrap();
        Engine::with_options(&p, Options { strategy, ..Options::default() }).unwrap()
    }

    fn packet_in(switch: i64, hdr: i64) -> Tuple {
        Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(switch), Value::Int(hdr)])
    }

    #[test]
    fn a_deaf_first_occurrence_writes_the_reference_engines_log_rows() {
        let (mut batch, mut pipe) = (engine(EvalStrategy::Batch), engine(EvalStrategy::Pipelined));
        // Switch 3 and 4 no rule hears; switch 1 a rule hears but its
        // selection rejects header 54 after the dispatch.
        for t in [packet_in(3, 80), packet_in(1, 53), packet_in(4, 7), packet_in(1, 54), packet_in(3, 81)] {
            assert_eq!(batch.insert(t.clone()), pipe.insert(t.clone()), "{t}");
            assert!(batch.log() == pipe.log(), "the log after {t}");
        }
        assert_eq!(batch.now(), pipe.now());
        assert_eq!((batch.steps(), batch.memo_hits(), batch.unheard()), (2, 0, 3));
        assert_eq!((pipe.steps(), pipe.unheard()), (5, 0), "the reference drains every event");
    }

    #[test]
    fn a_deaf_events_first_repeat_steps_and_files() {
        let (mut batch, mut pipe) = (engine(EvalStrategy::Batch), engine(EvalStrategy::Pipelined));
        let deaf = packet_in(3, 80);
        let mut counts = Vec::new();
        for _ in 0..3 {
            assert_eq!(batch.insert(deaf.clone()), pipe.insert(deaf.clone()));
            counts.push((batch.steps(), batch.memo_hits(), batch.unheard()));
        }
        assert!(batch.log() == pipe.log());
        // Unheard, then drained and filed, then replayed from the memo.
        assert_eq!(counts, [(0, 0, 1), (1, 0, 1), (1, 1, 1)]);
    }
}
