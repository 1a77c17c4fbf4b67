//! Multi-query optimization for joint backtesting (§4.4).
//!
//! "We associate each tuple with a set of tags … we update all the rules
//! such that the tag of the head is the intersection of the tags in the
//! body. Then, for each repair candidate, we create a new tag and add
//! copies of all the rules the repair candidate modifies, but we restrict
//! them to this particular tag."
//!
//! [`tagged_program`] performs exactly this transformation, including the
//! coalescing optimization (syntactically identical candidate rules share
//! one variant with a merged tag mask). [`mqo_replay_deltas`] then replays
//! the workload **once**: network state forks only where decisions
//! diverge, and controller evaluation is shared across every candidate
//! whose tag reaches the same PacketIn.
//!
//! # Who applies what, and when
//!
//! A candidate arrives as a [`RuleDelta`] — the rules its repair modifies,
//! all the construction above asks for. The backtesting program borrows
//! the base program's rules and owns only the candidates' copies, so it
//! costs `O(base rules + rules the candidates touch)` to build and nobody
//! materialises a patched program on this path: the debugger takes each
//! repair's `Patch::delta` and hands the deltas over. Callers that hold
//! whole patched programs ([`build_tagged_program`], [`mqo_replay`]) get
//! the same builder: their programs are diffed against the base into
//! deltas first. Whole programs are applied only where one must compile:
//! the per-candidate reference replay ([`crate::replay_candidates`]).
//!
//! # Network state: sparse, tag-shared flow tables
//!
//! The candidates' networks are one structure: per switch, a short list
//! of `(mask, table)` variants. The masks of a switch's variants are
//! non-empty and pairwise disjoint, and its tables are non-empty and
//! pairwise different; a candidate in none of them has, at that switch,
//! the empty table. So a switch nothing was installed on has no entry at
//! all — an absent table answers every lookup with a miss, which is what
//! an empty one answers — and the state is proportional to the *distinct*
//! tables the replay builds, not to the switch count or the candidate
//! count. Installs on a switch the topology does not have are ignored, as
//! the simulator ignores them: a FlowMod to a nonexistent switch has
//! nowhere to land, and must not conjure a table that no packet can reach
//! but the footprint would count.
//!
//! A FlowMod (or manual entry) for the tag set `ctags` installs in place
//! into every variant whose mask lies within `ctags`. A variant it only
//! partly covers is split copy-on-write: the covered candidates leave
//! with a copy that has the entry, the others keep the original. The
//! candidates of `ctags` in no variant get a fresh one-entry table. Then
//! the variants the install touched are compared with the rest, and two
//! that hold the same table become one, their masks united — which is what
//! happens when candidates that took different turns a switch earlier
//! install, a packet apart, what the others already hold. "The same table"
//! is [`FlowTable::same_entries_in_order`]: the entry vector is all a
//! table's lookups and later installs depend on, so variants equal in it
//! are equal for good and the merge is exact. It is *not* equality as sets:
//! entries that tie on priority and specificity sit in install order, and
//! the earlier one wins a packet both match. The proactive routes,
//! identical for everyone, are one full-mask variant per switch, built
//! once and never cloned.
//!
//! Packets in flight carry a tag set too: a hop costs one lookup per
//! variant — per distinct table — that intersects the flight's tags, the
//! candidates that miss punt together, and copies that coincide again
//! after diverging travel on as one flight. Counters are exact per
//! candidate and cost one bump per event: they are kept per tag *class*
//! (the distinct tag sets flights and punts carry) and added into each
//! member's `SimStats` when the replay ends (`Forwarder`). What the replay
//! did is counted in [`JointWork`]; debug builds check the invariants above
//! after every install and once at the end.
//!
//! # The controller: the engine's rounds over tagged state
//!
//! What a rule variant *is* at run time is [`mpr_runtime::compiled`]'s —
//! the form the engine fires through too — and which variants a delta
//! visits is the engine's [`mpr_runtime::TriggerDispatch`]. This module's
//! own is what a tuple carries (a [`TagSet`]; a head's is the intersection
//! of its body's) and the loop around the firings, which keeps the
//! engine's discipline (`batch.rs`) in its own terms. A step — a seed or a
//! PacketIn — runs in *rounds*. Per table the state is one append-only
//! vector of `(tuple, tags)` rows with a `stable` watermark; a state head
//! derived in a round is held back, deduplicated against what is visible
//! and what is already held back, until the next round appends it, so a
//! rule fired by the same delta does not see it. With the delta at body
//! position `i`, an atom after `i` reads the rows below the watermark and
//! an atom before it every row: two deltas of one round fire their pair
//! once. An *event* head is a delta of the next round every time it is
//! derived, and never a row. A head of one of the codec's output tables is
//! not queued: `LiveOutputs` decides, per candidate, whether it *appears*
//! (new, or replacing another payload under its key) and becomes a control
//! message. Seeds are tagged like everything else (`tagged_seeds`).
//!
//! A punt is hashed once: the event's columns (the switch and the codec's
//! packet fields — with the codec's table and location, the event tuple)
//! are written into a buffer, and their hash finds the memo of steps
//! already taken for this event and tag set, and files a new one. A hit
//! builds no tuple and allocates nothing; a step that adds a state row
//! empties the memo, since nothing in it replays exactly any more, so no
//! entry outlives the state it was computed under. `LiveOutputs` finds a
//! head's slot by hashing its key columns where they lie.
//!
//! # Scope: what is checked, and handed back
//!
//! The replay answers for a candidate as far as that mirrors the engine,
//! and says where it does not: [`JointReplay::diverged`] collects, while
//! it runs, the candidates that met
//!
//! - a *second payload under a proper primary key* of a state table some
//!   rule reads: the engine replaces the first and retracts what it
//!   supported, which here would take support counts per tag;
//! - an *output table in a rule body*: `LiveOutputs` mirrors replacement
//!   for appearing, not for joining;
//! - a *rule that does not compile, or aggregates*: a candidate's own
//!   copies are checked up front (the reference refuses the whole
//!   program), a borrowed base rule when a delta first reaches it;
//! - a step that fires 100 000 deltas.
//!
//! Callers replay those per candidate ([`crate::replay_candidates`];
//! [`mqo_replay`] does it itself). For the rest the claim is the whole
//! `SimStats` of a sequential replay (`tests/prop_mqo.rs`), and
//! [`mqo_supported`] is the one whole-run condition: an aggregate in the
//! *base*. DESIGN.md, "Backtesting", has the reasons.
//!
//! The joint network has no clock and no faults. Flights advance one hop
//! round at a time and a round's punts are evaluated after its lookups,
//! where the simulator orders events by time; the two agree as long as a
//! candidate never has two copies of one packet racing for the controller
//! — entries the codec decodes never copy a packet. Fault plans are not
//! modelled: the debugger backtests per candidate under one.

use crate::replay::{replay_with_extra_flows, BacktestSetup, ReplayOutcome};
use mpr_ndlog::eval::CountingFuncs;
use mpr_ndlog::patch::RuleDelta;
use mpr_ndlog::{Catalog, Program, Rule, Tuple, Value};
use mpr_runtime::{build_dispatch, LazyRule, Prehashed, TriggerDispatch};
use mpr_sdn::controller::{CtrlMsg, PacketInMsg, TupleCodec};
use mpr_sdn::flowtable::{proactive_routes, Action, FlowEntry, FlowTable};
use mpr_sdn::packet::Packet;
use mpr_sdn::sim::SimStats;
use mpr_sdn::topology::{NodeRef, Topology};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// A set of candidate tags (bit i = candidate i). At most 64 candidates
/// per joint backtest — far above the paper's 9–13.
pub type TagSet = u64;

/// One rule variant in the backtesting program.
#[derive(Debug, Clone)]
pub struct TaggedVariant<'a> {
    /// The rule: the base program's own (borrowed), or a candidate's
    /// modified copy (owned).
    pub rule: Cow<'a, Rule>,
    /// Which candidates this variant runs for.
    pub mask: TagSet,
}

/// The backtesting program of §4.4.
#[derive(Debug, Clone)]
pub struct TaggedProgram<'a> {
    /// Variants, in base-program rule order (candidate copies follow their
    /// original).
    pub variants: Vec<TaggedVariant<'a>>,
    /// Number of candidates.
    pub n: usize,
    /// How many candidate rule copies were merged by coalescing.
    pub coalesced: usize,
}

/// Can this program be backtested by the tagged evaluator?
pub fn mqo_supported(program: &Program) -> bool {
    program.rules.iter().all(|r| !r.is_aggregate())
}

/// Build the backtesting program for the candidates `deltas` describe
/// (candidate `i` is `base` overlaid with `deltas[i]`): every base rule
/// once, for the candidates that leave it alone, followed by the copies of
/// the candidates that edited it; then the rules candidates added.
pub fn tagged_program<'a>(base: &'a Program, deltas: &[RuleDelta]) -> TaggedProgram<'a> {
    assert!(deltas.len() <= 64, "at most 64 candidates per joint backtest");
    let full: TagSet = if deltas.is_empty() { 0 } else { (!0u64) >> (64 - deltas.len()) };
    let rules = base.rules.len();
    // Per base rule, the candidates that kept it verbatim: they share the
    // original.
    let mut shared: Vec<TagSet> = vec![full; rules];
    // Per base position, the copies of the candidates that modified the
    // rule; under `rules`, the rules candidates added. Equal copies are
    // coalesced into one variant.
    let mut copies: BTreeMap<usize, Vec<(&Rule, TagSet)>> = BTreeMap::new();
    let mut coalesced = 0;
    let mut add_copy = |pos: usize, rule, bit: TagSet| {
        let at = copies.entry(pos).or_default();
        match at.iter_mut().find(|(r, _)| *r == rule) {
            Some((_, mask)) => {
                *mask |= bit;
                coalesced += 1;
            }
            None => at.push((rule, bit)),
        }
    };
    for (i, d) in deltas.iter().enumerate() {
        let bit = 1u64 << i;
        for (pos, edited) in &d.changed {
            if edited.as_ref() != Some(&base.rules[*pos]) {
                shared[*pos] &= !bit;
                if let Some(r) = edited {
                    add_copy(*pos, r, bit);
                } // else deleted in this candidate
            }
        }
        d.added.iter().for_each(|r| add_copy(rules, r, bit));
    }
    let mut variants: Vec<TaggedVariant<'a>> = Vec::with_capacity(rules);
    for (pos, rule) in base.rules.iter().enumerate() {
        if shared[pos] != 0 || deltas.is_empty() {
            variants.push(TaggedVariant { rule: Cow::Borrowed(rule), mask: shared[pos] });
        }
        variants.extend(copies.remove(&pos).into_iter().flatten().map(owned_variant));
    }
    variants.extend(copies.remove(&rules).into_iter().flatten().map(owned_variant));
    TaggedProgram { variants, n: deltas.len(), coalesced }
}

fn owned_variant<'a>((rule, mask): (&Rule, TagSet)) -> TaggedVariant<'a> {
    TaggedVariant { rule: Cow::Owned(rule.clone()), mask }
}

/// Each fully patched program as a delta against `base`, for callers that
/// hold programs. Rules are matched by id, as [`Program::rule`] matches
/// them (a duplicated id resolves to its first rule): a candidate rule
/// under a base rule's id is that rule's edited copy wherever it sits, and
/// one under an id the base does not have is an addition.
fn deltas_between(base: &Program, candidates: &[Program]) -> Vec<RuleDelta> {
    let base_ids: HashSet<&str> = base.rules.iter().map(|r| r.id.as_str()).collect();
    candidates
        .iter()
        .map(|cand| {
            let mut by_id: HashMap<&str, &Rule> = HashMap::with_capacity(cand.rules.len());
            for r in &cand.rules {
                by_id.entry(r.id.as_str()).or_insert(r);
            }
            let changed = base
                .rules
                .iter()
                .enumerate()
                .filter_map(|(pos, rule)| match by_id.get(rule.id.as_str()) {
                    Some(&r) if r == rule => None,
                    edited => Some((pos, edited.map(|&r| r.clone()))),
                })
                .collect();
            let added =
                cand.rules.iter().filter(|r| !base_ids.contains(r.id.as_str())).cloned().collect();
            RuleDelta { changed, added }
        })
        .collect()
}

/// [`tagged_program`] for `candidates` given as fully patched programs
/// derived from `base`.
pub fn build_tagged_program<'a>(base: &'a Program, candidates: &[Program]) -> TaggedProgram<'a> {
    tagged_program(base, &deltas_between(base, candidates))
}

/// The primary-key columns of `t`, in column order: the `declared` ones,
/// or every column when none is declared.
fn key_columns<'t>(t: &'t Tuple, declared: &'t [usize]) -> impl Iterator<Item = &'t Value> {
    let all = declared.is_empty();
    t.args.iter().enumerate().filter(move |(c, _)| all || declared.contains(c)).map(|(_, v)| v)
}

/// Which output tuples — the ones the codec turns into control messages —
/// are live in each candidate's controller. The sequential controller
/// answers a PacketIn with the tuples that *appeared*: new, or replacing
/// another payload under the same primary key. A rule that derives a
/// `FlowTable` tuple the candidate already holds is silent there, and must
/// be here; tuples of event tables always appear.
struct LiveOutputs<'a> {
    catalog: &'a Catalog,
    hasher: RandomState,
    /// The hash of a tuple's table, location and primary-key columns → the
    /// payloads seen under the keys of that hash, and the candidates each
    /// is live for (disjoint among the payloads of one key). Keyed by the
    /// hash itself, so nothing hashes a second time.
    by_key: Prehashed<Vec<(Tuple, TagSet)>>,
}

impl LiveOutputs<'_> {
    /// `head` was derived for `tags`: returns the candidates it appeared
    /// for. The key is read off `head` where it lies; no tuple is built.
    fn appear(&mut self, head: &Tuple, tags: TagSet) -> TagSet {
        let declared: &[usize] = match self.catalog.get(&head.table) {
            Some(schema) if !schema.is_state() => return tags,
            Some(schema) => &schema.keys,
            None => &[],
        };
        let mut hasher = self.hasher.build_hasher();
        head.table.hash(&mut hasher);
        head.loc.hash(&mut hasher);
        key_columns(head, declared).for_each(|v| v.hash(&mut hasher));
        let slot = self.by_key.entry(hasher.finish()).or_default();
        let mut fresh = tags;
        let mut known = false;
        for (payload, live) in slot.iter_mut() {
            if payload == head {
                fresh &= !*live;
                *live |= tags;
                known = true;
            } else if payload.table == head.table
                && payload.loc == head.loc
                && key_columns(payload, declared).eq(key_columns(head, declared))
            {
                *live &= !tags; // replaced
            }
        }
        if !known {
            slot.push((head.clone(), tags));
        }
        fresh
    }
}

/// One table of the tagged controller state.
#[derive(Default)]
struct TaggedTable {
    /// Append-only, in the order the tuples became visible. A tuple may
    /// hold several rows, their tags disjoint: it is a delta again for a
    /// candidate that derives it rounds after another.
    rows: Vec<(Tuple, TagSet)>,
    /// `rows[..stable]` were merged by a finished round; the rest are the
    /// running round's deltas.
    stable: usize,
    /// [`tags_digest`] of `rows[..stable]`, as of when each row went under
    /// the watermark.
    #[cfg(debug_assertions)]
    sealed: u64,
}

impl TaggedTable {
    /// The round ends: what was recent is stable.
    fn seal(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.sealed = tags_digest(self.sealed, &self.rows[self.stable..]);
        }
        self.stable = self.rows.len();
    }
}

/// An order-sensitive digest of the tags of `rows`, continuing `digest`.
#[cfg(debug_assertions)]
fn tags_digest(digest: u64, rows: &[(Tuple, TagSet)]) -> u64 {
    rows.iter().fold(digest, |d, (_, tags)| d.rotate_left(7) ^ tags.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A memoized step: the event's columns ([`TaggedEngine::key`]), the tags
/// it was evaluated for, the output heads it derived.
type Memo = (Box<[i64]>, TagSet, Rc<Vec<(Tuple, TagSet)>>);

/// Tagged controller state, and the engine's round loop over it (module
/// docs, "The controller").
struct TaggedEngine<'a> {
    program: &'a TaggedProgram<'a>,
    catalog: &'a Catalog,
    codec: &'a TupleCodec,
    /// Per variant, its compiled form: a candidate's own copy is compiled
    /// up front, a borrowed base rule when a delta first reaches it, as the
    /// engine compiles its rules.
    compiled: Vec<LazyRule>,
    /// table → the `(variant, body position)` pairs its deltas visit,
    /// grouped by prefilter constant.
    dispatch: HashMap<String, Arc<TriggerDispatch>>,
    /// Seeds and derived state; never an event.
    state: HashMap<String, TaggedTable>,
    /// The key columns of the state tables with a proper primary key that
    /// some rule reads: where a second payload replaces the first.
    keyed: HashMap<String, Vec<usize>>,
    outputs: LiveOutputs<'a>,
    funcs: CountingFuncs,
    /// The candidates that met what this evaluator does not mirror.
    diverged: TagSet,
    /// How many state rows were ever added.
    state_rows: u64,
    /// Fixpoint memo: the codec projects packets onto coarse event tuples
    /// (e.g. `PacketIn(@C, Swi, Hdr)`), so distinct packets repeatedly
    /// trigger the *same* evaluation. A hit replays the recorded heads
    /// through the codec against the current packet; evaluation is a pure
    /// function of `(state, event, tags)`, so this is exact while the
    /// state stands: adding a state row empties the memo. Keyed by the hash
    /// of the event's columns, taken once per punt.
    memo: Prehashed<Vec<Memo>>,
    hasher: RandomState,
    /// The columns of the PacketIn being answered — the switch, then one
    /// per `packet_in_args` — which with the codec's two constants are the
    /// event tuple. A buffer, like `scratch`: a memo hit allocates nothing.
    key: Vec<i64>,
    /// [`Self::step`]'s `round` / `pending` / `heads`, empty between steps.
    scratch: [Vec<(Tuple, TagSet)>; 3],
    /// Punts answered by a [`Self::step`], and from the memo.
    steps: u64,
    memo_hits: u64,
}

impl<'a> TaggedEngine<'a> {
    fn new(program: &'a TaggedProgram<'a>, catalog: &'a Catalog, codec: &'a TupleCodec) -> Self {
        let mut triggers: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
        let mut diverged: TagSet = 0;
        let mut compiled = Vec::with_capacity(program.variants.len());
        for (vi, v) in program.variants.iter().enumerate() {
            for (ai, atom) in v.rule.body.iter().enumerate() {
                triggers.entry(atom.table.as_str()).or_default().push((vi, ai));
            }
            // The reference refuses a program one of whose rules does not
            // compile, whether or not a delta ever reaches the rule.
            let form = LazyRule::default();
            if let Cow::Owned(rule) = &v.rule {
                if form.get(rule, catalog).is_none() {
                    diverged |= v.mask;
                }
            }
            compiled.push(form);
        }
        let mut keyed = HashMap::new();
        for (&table, readers) in &triggers {
            if codec.is_output(table) {
                diverged |= readers.iter().fold(0, |m, &(vi, _)| m | program.variants[vi].mask);
            }
            if let Some(schema) = catalog.get(table).filter(|s| s.is_state()) {
                let keys = schema.effective_keys();
                if keys.len() < schema.arity {
                    keyed.insert(table.to_string(), keys);
                }
            }
        }
        TaggedEngine {
            program,
            catalog,
            codec,
            compiled,
            dispatch: build_dispatch(&triggers, |vi| &*program.variants[vi].rule),
            state: HashMap::new(),
            keyed,
            outputs: LiveOutputs { catalog, hasher: RandomState::new(), by_key: Prehashed::default() },
            funcs: CountingFuncs::starting_at(1000),
            diverged,
            state_rows: 0,
            memo: Prehashed::default(),
            hasher: RandomState::new(),
            key: Vec::new(),
            scratch: Default::default(),
            steps: 0,
            memo_hits: 0,
        }
    }

    fn is_event(&self, table: &str) -> bool {
        self.catalog.get(table).is_some_and(|s| !s.is_state())
    }

    /// The candidates of `tags` for which the state tuple `t` is new:
    /// neither visible nor held back in `pending`. Those for which it is a
    /// second payload under its primary key diverge.
    fn admit(&mut self, t: &Tuple, tags: TagSet, pending: &[(Tuple, TagSet)]) -> TagSet {
        let keys = self.keyed.get(&t.table);
        let same_key = |row: &Tuple| {
            keys.is_some_and(|k| row.loc == t.loc && k.iter().all(|&c| row.args.get(c) == t.args.get(c)))
        };
        let rows = self.state.get(&t.table).map_or(&[][..], |table| &table.rows[..]);
        let mut known: TagSet = 0;
        for (row, row_tags) in rows.iter().chain(pending.iter().filter(|(p, _)| p.table == t.table)) {
            if row == t {
                known |= row_tags;
            } else if row_tags & tags != 0 && same_key(row) {
                self.diverged |= row_tags & tags;
            }
        }
        tags & !known
    }

    /// One engine step: `delta` is inserted for `tags` and the program run
    /// to fixpoint, in rounds. Returns the heads derived into the codec's
    /// output tables, in order, each with the candidates it was derived
    /// for.
    fn step(&mut self, delta: Tuple, tags: TagSet) -> Vec<(Tuple, TagSet)> {
        let mut outputs = Vec::new();
        let tags = if self.is_event(&delta.table) { tags } else { self.admit(&delta, tags, &[]) };
        if tags == 0 {
            return outputs;
        }
        // This round's deltas, the heads it holds back for the next, and
        // one variant's heads at a time.
        let [mut round, mut pending, mut heads] = std::mem::take(&mut self.scratch);
        round.push((delta, tags));
        let mut fired = 0u32;
        while !round.is_empty() {
            // The round begins: its state deltas become visible, as recent.
            for (t, ttags) in &round {
                if !self.is_event(&t.table) {
                    let table = match self.state.get_mut(&t.table) {
                        Some(table) => table,
                        None => self.state.entry(t.table.clone()).or_default(),
                    };
                    table.rows.push((t.clone(), *ttags));
                    self.state_rows += 1;
                    self.memo.clear();
                }
            }
            for (delta, dtags) in &round {
                fired += 1;
                if fired > 100_000 {
                    // A runaway recursion: the engine's own budgets judge it.
                    self.diverged |= tags;
                    pending.clear();
                    break;
                }
                // The variants this delta can fire, in program order: its
                // value's keyed group merged with the residual list.
                let Some(dispatch) = self.dispatch.get(&delta.table).map(Arc::clone) else {
                    continue;
                };
                for (vi, ai) in dispatch.triggers_for(delta) {
                    let variant = &self.program.variants[vi];
                    let active = variant.mask & dtags;
                    if active == 0 {
                        continue;
                    }
                    let Some(rule) = self.compiled[vi].get(&variant.rule, self.catalog) else {
                        self.diverged |= active;
                        continue;
                    };
                    let state = &self.state;
                    rule.fire_scan(
                        ai,
                        delta,
                        active,
                        |table, after_delta| match state.get(table) {
                            Some(t) if after_delta => &t.rows[..t.stable],
                            Some(t) => &t.rows,
                            None => &[],
                        },
                        |a, b| Some(a & b).filter(|&joint| joint != 0),
                        &mut self.funcs,
                        &mut heads,
                    );
                    let head_is_event = rule.head_is_event();
                    for (head, htags) in heads.drain(..) {
                        if self.codec.is_output(&head.table) {
                            outputs.push((head, htags));
                        } else if head_is_event {
                            // A transient event: it triggers, and is gone.
                            pending.push((head, htags));
                        } else {
                            // Derived controller state, for whom it is new.
                            let fresh = self.admit(&head, htags, &pending);
                            if fresh != 0 {
                                pending.push((head, fresh));
                            }
                        }
                    }
                }
            }
            for (t, _) in &round {
                if let Some(table) = self.state.get_mut(&t.table) {
                    table.seal();
                }
            }
            std::mem::swap(&mut round, &mut pending);
            pending.clear();
        }
        self.scratch = [round, pending, heads];
        outputs
    }

    /// Evaluate the tagged program on one PacketIn under `tags`: pushes the
    /// control messages it answers with, and the tag sets they apply to.
    fn on_packet_in(&mut self, msg: &PacketInMsg, tags: TagSet, out: &mut Vec<(CtrlMsg, TagSet)>) {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.push(msg.switch);
        key.extend(self.codec.packet_in_args.iter().map(|arg| arg.value_of(msg)));
        let hash = self.hasher.hash_one(&key);
        let known = self.memo.get(&hash).and_then(|memos| {
            memos.iter().find(|(event, mtags, _)| *mtags == tags && **event == *key).map(|m| Rc::clone(&m.2))
        });
        let heads = match known {
            Some(heads) => {
                self.memo_hits += 1;
                heads
            }
            None => {
                self.steps += 1;
                let rows_at_entry = self.state_rows;
                let heads = Rc::new(self.step(self.codec.packet_in_tuple(msg), tags));
                // Memoize only steps that left the state alone — those
                // replay identically until a later step moves it.
                if self.state_rows == rows_at_entry {
                    self.memo.entry(hash).or_default().push((key.as_slice().into(), tags, Rc::clone(&heads)));
                }
                heads
            }
        };
        self.key = key;
        for (head, htags) in heads.iter() {
            let fresh = self.outputs.appear(head, *htags);
            if let (true, Some(cm)) = (fresh != 0, self.codec.decode(head, msg)) {
                out.push((cm, fresh));
            }
        }
    }
}

/// Per-candidate extra flow entries ("manual install" repairs).
pub type ExtraFlows = Vec<(i64, FlowEntry)>;

/// Call `f(i)` for every candidate `i` in `tags`, ascending.
fn for_each_tag(tags: TagSet, mut f: impl FnMut(usize)) {
    let mut rest = tags;
    while rest != 0 {
        f(rest.trailing_zeros() as usize);
        rest &= rest - 1;
    }
}

/// The flow tables of every candidate's network: shared until a FlowMod
/// tells the candidates apart, and shared again once their tables are the
/// same (module doc, "Network state").
struct TaggedTables<'a> {
    topo: &'a Topology,
    /// Per switch, `(mask, table)` variants: masks are non-empty and
    /// pairwise disjoint, tables non-empty and pairwise different
    /// ([`FlowTable::same_entries_in_order`]). A tag in no variant sees the
    /// empty table.
    by_switch: BTreeMap<i64, Vec<(TagSet, FlowTable)>>,
}

impl TaggedTables<'_> {
    /// Install `entry` at `switch` for the candidates in `ctags`. Unknown
    /// switches are ignored, as [`mpr_sdn::flowtable::FlowTables::install`]
    /// ignores them.
    fn install(&mut self, switch: i64, ctags: TagSet, entry: &FlowEntry) {
        if ctags == 0 || !self.topo.switches.contains(&switch) {
            return;
        }
        let variants = self.by_switch.entry(switch).or_default();
        let mut unseen = ctags;
        for i in 0..variants.len() {
            let mask = variants[i].0;
            let hit = mask & ctags;
            if hit == 0 {
                continue;
            }
            unseen &= !mask;
            if hit == mask {
                variants[i].1.install(entry.clone());
            } else {
                // Only part of the variant's candidates get the entry:
                // they fork off with a copy, the rest keep the original.
                let mut forked = variants[i].1.clone();
                forked.install(entry.clone());
                variants[i].0 = mask & !ctags;
                variants.push((hit, forked));
            }
        }
        if unseen != 0 {
            let mut fresh = FlowTable::new();
            fresh.install(entry.clone());
            variants.push((unseen, fresh));
        }
        // Every variant now lies within `ctags` or apart from it, and only
        // those within were touched: one of them may have arrived at the
        // table of another variant — the candidates that diverged a packet
        // ago installing what the others already hold. Those are one
        // variant again. The comparison is ordered, which is what makes the
        // merge exact: see `FlowTable::same_entries_in_order`.
        let mut i = 1;
        while i < variants.len() {
            let twin = (0..i).find(|&j| {
                let touched = (variants[i].0 | variants[j].0) & ctags != 0;
                touched && variants[j].1.same_entries_in_order(&variants[i].1)
            });
            match twin {
                Some(j) => variants[j].0 |= variants.remove(i).0,
                None => i += 1,
            }
        }
        #[cfg(debug_assertions)]
        check_variants(switch, variants);
    }

    fn footprint(&self) -> TableFootprint {
        TableFootprint {
            switches: self.by_switch.len(),
            variants: self.by_switch.values().map(Vec::len).sum(),
        }
    }
}

/// The invariant of one switch's variants (`TaggedTables::by_switch`).
#[cfg(debug_assertions)]
fn check_variants(switch: i64, variants: &[(TagSet, FlowTable)]) {
    for (i, (mask, table)) in variants.iter().enumerate() {
        assert!(*mask != 0 && !table.is_empty(), "switch {switch}: variant {i} is empty");
        for (other, other_table) in &variants[..i] {
            assert_eq!(mask & other, 0, "switch {switch}: masks overlap");
            assert!(!table.same_entries_in_order(other_table), "switch {switch}: one table, two variants");
        }
    }
}

/// How much flow-table state a joint replay materialised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableFootprint {
    /// Switches with at least one table variant.
    pub switches: usize,
    /// Table variants over all switches: per switch, one per distinct
    /// non-empty table among the candidates.
    pub variants: usize,
}

/// A packet arriving at `at` on `port` for the candidates in `tags` — on
/// the wire, or (at a switch) waiting as a PacketIn for the shared
/// controller evaluation. Every flight of one hop round has made the same
/// number of hops, so the round carries the count.
struct Flight<N> {
    at: N,
    port: i64,
    pkt: Packet,
    tags: TagSet,
}

/// Add a flight to `list`. Candidates whose copies of a packet coincide
/// travel (and punt) together; overlapping tags mean a genuine duplicate,
/// which stays a flight of its own.
fn join_flights<N: PartialEq>(
    list: &mut Vec<Flight<N>>,
    at: N,
    port: i64,
    pkt: &Packet,
    tags: TagSet,
) {
    match list
        .iter_mut()
        .find(|f| f.tags & tags == 0 && f.at == at && f.port == port && f.pkt == *pkt)
    {
        Some(f) => f.tags |= tags,
        None => list.push(Flight { at, port, pkt: pkt.clone(), tags }),
    }
}

/// The data-plane half of the joint replay: what a hit's actions or a
/// `PacketOut` do to the packet, mirroring `Simulation`'s `apply_actions`
/// / `emit` / `punt` with a tag set in place of one network.
///
/// Counters are kept per tag *class* — the distinct tag sets that flights
/// and punts actually carry — and bumped once per event, whatever the
/// number of candidates in the set. A replay meets a few classes per
/// candidate at most (`tests/joint_work.rs` bounds it). [`Self::fold`] adds
/// every class into each of its members once, when the replay ends: sums
/// and map merges commute, so a candidate reads what one bump per tag
/// would have left it.
struct Forwarder<'a> {
    topo: &'a Topology,
    /// Counters by (non-empty) tag set.
    classes: BTreeMap<TagSet, SimStats>,
    /// Flights of the next hop round.
    next: Vec<Flight<NodeRef>>,
    /// PacketIns not yet evaluated, by switch.
    punts: Vec<Flight<i64>>,
}

impl Forwarder<'_> {
    /// Bump the counters of the class `tags`, once for all its candidates.
    fn count(&mut self, tags: TagSet, bump: impl FnOnce(&mut SimStats)) {
        if tags != 0 {
            bump(self.classes.entry(tags).or_default());
        }
    }

    /// The per-candidate counters: every class added into each of its
    /// members once.
    fn fold(&self, n: usize) -> Vec<SimStats> {
        let mut stats = vec![SimStats::default(); n];
        for (tags, class) in &self.classes {
            for_each_tag(*tags, |t| stats[t].add(class));
        }
        stats
    }

    fn apply_actions(
        &mut self,
        switch: i64,
        in_port: i64,
        pkt: &Packet,
        actions: &[Action],
        tags: TagSet,
    ) {
        let mut pkt = pkt.clone();
        let mut emitted = false;
        for a in actions {
            match a {
                Action::Modify(f, v) => pkt.set_field(*f, *v),
                Action::Output(p) => {
                    self.emit(switch, *p, &pkt, tags);
                    emitted = true;
                }
                Action::Flood => {
                    let topo = self.topo;
                    for (p, _) in topo.links_of(NodeRef::Switch(switch)) {
                        if p != in_port {
                            self.emit(switch, p, &pkt, tags);
                        }
                    }
                    emitted = true;
                }
                Action::Drop => {
                    self.count(tags, |s| s.dropped_policy += 1);
                    return;
                }
                Action::Controller => {
                    self.punt(switch, in_port, &pkt, tags);
                    emitted = true;
                }
            }
        }
        if !emitted {
            self.count(tags, |s| s.dropped_policy += 1);
        }
    }

    fn emit(&mut self, switch: i64, out_port: i64, pkt: &Packet, tags: TagSet) {
        match self.topo.peer(NodeRef::Switch(switch), out_port) {
            Some((at, port)) => join_flights(&mut self.next, at, port, pkt, tags),
            None => self.count(tags, |s| s.dropped_policy += 1),
        }
    }

    /// Queue a PacketIn; identical ones are evaluated once for all their
    /// candidates.
    fn punt(&mut self, switch: i64, in_port: i64, pkt: &Packet, tags: TagSet) {
        join_flights(&mut self.punts, switch, in_port, pkt, tags);
    }
}

/// [`mqo_replay_deltas`] for `candidates` given as fully patched programs
/// derived from `base`, on the setup's seeds; the outcomes only, those of
/// [`JointReplay::diverged`] taken from one reference replay each. A
/// candidate the reference refuses too (a rule of it does not compile)
/// keeps the joint outcome — that of the candidate without the rule.
pub fn mqo_replay(
    setup: &BacktestSetup,
    base: &Program,
    candidates: &[Program],
    extra_flows: &[ExtraFlows],
) -> Vec<ReplayOutcome> {
    let joint = mqo_replay_deltas(setup, base, &deltas_between(base, candidates), extra_flows, &[]);
    let mut outcomes = joint.outcomes;
    for_each_tag(joint.diverged, |i| {
        let flows = extra_flows.get(i).map_or(&[][..], Vec::as_slice);
        if let Ok(own) = replay_with_extra_flows(setup, &candidates[i], flows) {
            outcomes[i] = own;
        }
    });
    outcomes
}

/// What [`mqo_replay_deltas`] answers.
#[derive(Debug, Clone, Default)]
pub struct JointReplay {
    /// One outcome per candidate, index-aligned.
    pub outcomes: Vec<ReplayOutcome>,
    /// The candidates whose outcome is not to be used (module docs, "Scope").
    pub diverged: TagSet,
    /// How many flow tables the replay materialised — the count that must
    /// follow what the candidates install, not the size of the network.
    pub footprint: TableFootprint,
    /// What the replay did, counted.
    pub work: JointWork,
}

/// Exact counts of a joint replay's work, each taken where the work
/// happens. They repeat for a fixed input, and say what the replay paid
/// for: `tests/joint_work.rs` holds them to the distinct behaviours among
/// the candidates, not to the number of candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JointWork {
    /// Flights advanced one hop — to a switch, or the last one to a host:
    /// one per flight and hop round, however many candidates travel in it.
    pub flight_hops: u64,
    /// Flow-table lookups: one per table variant a flight's candidates
    /// live in.
    pub lookups: u64,
    /// Punts answered by running the program to fixpoint.
    pub steps: u64,
    /// Punts answered from the memo.
    pub memo_hits: u64,
    /// Distinct tag sets counters were kept for.
    pub classes: u64,
}

/// The seeds in the order the joint controller takes them, each with the
/// candidates it is a seed for. Candidate `i` starts from `own[i]`, or from
/// `shared`. As far as its list follows `shared`'s order it rides on the
/// shared tuples, which lose its bit where it dropped one; from its first
/// tuple out of that order on, its list goes behind them under its own
/// bit — so every candidate sees its own list, in its own order.
fn tagged_seeds<'s>(
    shared: &'s [Tuple],
    own: &'s [Option<Vec<Tuple>>],
    full: TagSet,
) -> Vec<(&'s Tuple, TagSet)> {
    let mut joint: Vec<(&Tuple, TagSet)> = shared.iter().map(|s| (s, full)).collect();
    for (i, list) in own.iter().enumerate() {
        let (Some(list), bit) = (list, 1 << i) else { continue };
        joint[..shared.len()].iter_mut().for_each(|(_, tags)| *tags &= !bit);
        let mut at = 0;
        for (k, seed) in list.iter().enumerate() {
            let Some(p) = shared[at..].iter().position(|s| s == seed) else {
                joint.extend(list[k..].iter().map(|s| (s, bit)));
                break;
            };
            joint[at + p].1 |= bit;
            at += p + 1;
        }
    }
    joint
}

/// Jointly replay the workload for every candidate — candidate `i` is
/// `base` with `deltas[i]`, plus the manual entries `extra_flows[i]`, its
/// controller seeded with `seeds[i]` (`None`, or no entry: `setup.seeds`).
///
/// The joint network is fault-free: `setup.config.faults` is not
/// modelled, so callers backtesting under a fault plan replay per
/// candidate ([`crate::replay_candidates`]).
pub fn mqo_replay_deltas(
    setup: &BacktestSetup,
    base: &Program,
    deltas: &[RuleDelta],
    extra_flows: &[ExtraFlows],
    seeds: &[Option<Vec<Tuple>>],
) -> JointReplay {
    let n = deltas.len();
    if n == 0 {
        return JointReplay::default();
    }
    let topo: &Topology = &setup.topology;
    let mut tables = TaggedTables { topo, by_switch: BTreeMap::new() };
    let full: TagSet = (!0u64) >> (64 - n);
    let tagged = tagged_program(base, deltas);
    let mut engine = TaggedEngine::new(&tagged, &base.catalog, &setup.codec);
    for (seed, tags) in tagged_seeds(&setup.seeds, seeds.get(..n).unwrap_or(seeds), full) {
        // What a seed derives into an output table is live from then on and
        // sent nowhere: `NdlogController::seed` drops the engine's answer.
        for (head, htags) in engine.step(seed.clone(), tags) {
            engine.outputs.appear(&head, htags);
        }
    }

    // The proactive routes are the same for every candidate: one
    // full-mask variant per switch, built once.
    if setup.proactive_routes {
        proactive_routes(topo, |sw, entry| tables.install(sw, full, &entry));
    }
    // Manual entries: candidates with the same list share its installs
    // (each list goes in in its own order — first install wins).
    let mut manual: Vec<(&ExtraFlows, TagSet)> = Vec::new();
    for (i, extra) in extra_flows.iter().enumerate().take(n) {
        match manual.iter_mut().find(|(m, _)| *m == extra) {
            Some((_, tags)) => *tags |= 1 << i,
            None => manual.push((extra, 1 << i)),
        }
    }
    for (extra, tags) in manual {
        for (sw, e) in extra {
            tables.install(*sw, tags, e);
        }
    }

    let mut fw = Forwarder { topo, classes: BTreeMap::new(), next: Vec::new(), punts: Vec::new() };
    let mut work = JointWork::default();
    // Hop-round buffers, reused across every injection.
    let mut flights: Vec<Flight<NodeRef>> = Vec::new();
    let mut batch: Vec<Flight<i64>> = Vec::new();
    let mut replies: Vec<(CtrlMsg, TagSet)> = Vec::new();

    for (src, pkt) in setup.workload.iter() {
        let Some((sw0, port0)) = topo.host_attachment(*src) else {
            continue;
        };
        fw.count(full, |s| s.injected += 1);
        flights.push(Flight { at: NodeRef::Switch(sw0), port: port0, pkt: pkt.clone(), tags: full });
        // One iteration per hop round: forward every flight one hop, then
        // evaluate the round's punts. The TTL guard bounds the rounds.
        let mut hops = 0u32;
        while !flights.is_empty() {
            for f in flights.drain(..) {
                work.flight_hops += 1;
                let s = match f.at {
                    NodeRef::Host(h) => {
                        if f.pkt.dst_ip == h {
                            fw.count(f.tags, |s| {
                                *s.delivered.entry(h).or_insert(0) += 1;
                                *s.delivered_by_port.entry((h, f.pkt.dst_port)).or_insert(0) += 1;
                            });
                        } else {
                            fw.count(f.tags, |s| s.misdelivered += 1);
                        }
                        continue;
                    }
                    NodeRef::Switch(s) => s,
                };
                if hops >= setup.config.max_hops {
                    fw.count(f.tags, |s| s.dropped_ttl += 1);
                    continue;
                }
                fw.count(f.tags, |s| s.hops += 1);
                // One lookup per variant — per distinct table — the
                // flight's candidates live in; the candidates in none see
                // the empty table and miss together.
                let mut missed = f.tags;
                for (mask, table) in tables.by_switch.get(&s).map_or(&[][..], Vec::as_slice) {
                    let here = mask & f.tags;
                    if here == 0 {
                        continue;
                    }
                    work.lookups += 1;
                    if let Some(e) = table.lookup(&f.pkt, f.port) {
                        missed &= !here;
                        fw.apply_actions(s, f.port, &f.pkt, &e.actions, here);
                    }
                }
                if missed != 0 {
                    fw.punt(s, f.port, &f.pkt, missed);
                }
            }
            // Shared controller evaluation per distinct punt. A reply may
            // punt again (`PacketOut` with `Action::Controller`), hence
            // the outer loop.
            while !fw.punts.is_empty() {
                std::mem::swap(&mut fw.punts, &mut batch);
                for p in batch.drain(..) {
                    fw.count(p.tags, |s| s.packet_ins += 1);
                    let msg = PacketInMsg { switch: p.at, in_port: p.port, packet: p.pkt };
                    let mut released: TagSet = 0;
                    engine.on_packet_in(&msg, p.tags, &mut replies);
                    for (cm, ctags) in replies.drain(..) {
                        match cm {
                            CtrlMsg::FlowMod { switch, entry } => {
                                fw.count(ctags, |s| s.flow_mods += 1);
                                tables.install(switch, ctags, &entry);
                            }
                            CtrlMsg::PacketOut { switch, packet, action } => {
                                released |= ctags;
                                fw.count(ctags, |s| s.packet_outs += 1);
                                fw.apply_actions(switch, p.port, &packet, &[action], ctags);
                            }
                        }
                    }
                    // Buffered-miss semantics: no PacketOut, no release.
                    fw.count(p.tags & !released, |s| s.dropped_buffered += 1);
                }
            }
            std::mem::swap(&mut flights, &mut fw.next);
            hops += 1;
        }
    }
    let work =
        JointWork { steps: engine.steps, memo_hits: engine.memo_hits, classes: fw.classes.len() as u64, ..work };
    let stats = fw.fold(n);
    #[cfg(debug_assertions)]
    check_replay(setup, &tables, &engine, &fw.classes, &stats, &work);
    let outcomes = stats.into_iter().map(ReplayOutcome::of).collect();
    JointReplay { outcomes, diverged: engine.diverged, footprint: tables.footprint(), work }
}

/// What a finished replay must leave behind (debug builds): the variants'
/// invariant on every switch; state rows under a watermark with the tags
/// they were sealed with; classes that are non-empty, each
/// folded into each of its members exactly once — the counters summed over
/// candidates are those of the classes, each taken `|tags|` times — with
/// every candidate injected every attached packet; and one step or memo
/// hit per punt.
#[cfg(debug_assertions)]
fn check_replay(
    setup: &BacktestSetup,
    tables: &TaggedTables,
    engine: &TaggedEngine,
    classes: &BTreeMap<TagSet, SimStats>,
    stats: &[SimStats],
    work: &JointWork,
) {
    for (switch, variants) in &tables.by_switch {
        check_variants(*switch, variants);
    }
    for (name, table) in &engine.state {
        let sealed = tags_digest(0, &table.rows[..table.stable]);
        assert_eq!(sealed, table.sealed, "{name}: a row under the watermark changed its tags");
    }
    assert!(!classes.contains_key(&0), "a class of no candidate");
    let attached = setup.workload.iter().filter(|(src, _)| setup.topology.host_attachment(*src).is_some());
    let attached = attached.count() as u64;
    assert!(stats.iter().all(|s| s.injected == attached), "a candidate missed an injection");
    let mut by_candidate = SimStats::default();
    stats.iter().for_each(|s| by_candidate.add(s));
    let mut by_class = SimStats::default();
    for (tags, class) in classes {
        (0..tags.count_ones()).for_each(|_| by_class.add(class));
    }
    assert_eq!(by_candidate, by_class, "a class was not folded once per member");
    let punts: u64 = classes.values().map(|class| class.packet_ins).sum();
    assert_eq!(work.steps + work.memo_hits, punts, "a punt neither stepped nor hit the memo");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay, BacktestSetup};
    use mpr_ndlog::patch::{Edit, Patch, ProgramOutline};
    use mpr_ndlog::{parse_program, CmpOp, Expr, ExprSide, Value};
    use mpr_sdn::controller::TupleCodec;
    use mpr_sdn::sim::SimConfig;
    use mpr_sdn::topology::{fig1, fig1_hosts};

    fn fig2_program() -> Program {
        parse_program(
            "fig2",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 2.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
            ",
        )
        .unwrap()
    }

    fn setup() -> BacktestSetup {
        let workload = (0..30)
            .map(|i| {
                (
                    fig1_hosts::INTERNET,
                    mpr_sdn::packet::Packet::http(i, 50 + (i as i64 % 3), fig1_hosts::H2),
                )
            })
            .collect();
        BacktestSetup {
            topology: std::sync::Arc::new(fig1()),
            codec: TupleCodec::fig2(),
            seeds: vec![],
            workload: std::sync::Arc::new(workload),
            config: SimConfig::default(),
            proactive_routes: false,
            engine: mpr_runtime::Options::default(),
        }
    }

    fn candidate_patches() -> Vec<Patch> {
        // Candidate 0: r7 Swi==2 → Swi==3 (the intuitive fix).
        // Candidate 1: r7 Swi==2 → Swi!=2.
        // Candidate 2: identical to candidate 0 (coalescing test).
        let c0 = Patch::single(Edit::SetSelectionExpr {
            rule: "r7".into(),
            sel: 0,
            side: ExprSide::Rhs,
            expr: Expr::int(3),
        });
        let c1 = Patch::single(Edit::SetSelectionOp {
            rule: "r7".into(),
            sel: 0,
            op: mpr_ndlog::CmpOp::Ne,
        });
        vec![c0.clone(), c1, c0]
    }

    fn applied(base: &Program, patches: &[Patch]) -> Vec<Program> {
        patches.iter().map(|p| p.apply(base).unwrap()).collect()
    }

    fn candidates(base: &Program) -> Vec<Program> {
        applied(base, &candidate_patches())
    }

    #[test]
    fn tagged_program_structure_and_coalescing() {
        let base = fig2_program();
        let cands = candidates(&base);
        let tp = build_tagged_program(&base, &cands);
        // r1, r5 shared by all three tags; r7 has a shared-none original
        // (no candidate keeps it) — so: r1(111), r5(111), r7-copy-a(101),
        // r7-copy-b(010).
        assert_eq!(tp.n, 3);
        assert_eq!(tp.coalesced, 1);
        let masks: Vec<TagSet> = tp.variants.iter().map(|v| v.mask).collect();
        assert!(masks.contains(&0b111));
        assert!(masks.contains(&0b101));
        assert!(masks.contains(&0b010));
        // No variant for the unmodified r7 (every candidate changed it).
        let r7_shared = tp
            .variants
            .iter()
            .any(|v| v.rule.id == "r7" && v.mask == 0b111 && *v.rule == *base.rule("r7").unwrap());
        assert!(!r7_shared);
        // The base's rules are borrowed; only the two r7 copies are owned.
        let owned: Vec<&str> = tp
            .variants
            .iter()
            .filter(|v| matches!(v.rule, Cow::Owned(_)))
            .map(|v| v.rule.id.as_str())
            .collect();
        assert_eq!(owned, ["r7", "r7"]);
    }

    /// What a build yields, comparable: every variant's rule and mask, in
    /// order, and the coalescing count.
    type Built = (Vec<(String, TagSet)>, usize);

    fn show(tp: &TaggedProgram) -> Built {
        (tp.variants.iter().map(|v| (v.rule.to_string(), v.mask)).collect(), tp.coalesced)
    }

    /// The build as it was before candidates were deltas and before the
    /// per-candidate id index: whole programs in, a `Program::rule` scan
    /// per (rule, candidate) pair. Kept as the reference the delta-fed
    /// build is compared against.
    fn build_tagged_program_by_scan(base: &Program, candidates: &[Program]) -> Built {
        let mut variants: Vec<(Rule, TagSet)> = Vec::new();
        let mut coalesced = 0;
        for rule in &base.rules {
            let mut shared: TagSet = 0;
            let mut copies: Vec<(Rule, TagSet)> = Vec::new();
            for (i, cand) in candidates.iter().enumerate() {
                let bit = 1u64 << i;
                match cand.rule(&rule.id) {
                    Some(r) if r == rule => shared |= bit,
                    Some(r) => {
                        if let Some((_, mask)) = copies.iter_mut().find(|(cr, _)| cr == r) {
                            *mask |= bit;
                            coalesced += 1;
                        } else {
                            copies.push((r.clone(), bit));
                        }
                    }
                    None => {}
                }
            }
            if shared != 0 {
                variants.push((rule.clone(), shared));
            }
            variants.extend(copies);
        }
        let mut added: Vec<(Rule, TagSet)> = Vec::new();
        for (i, cand) in candidates.iter().enumerate() {
            let bit = 1u64 << i;
            for r in &cand.rules {
                if base.rule(&r.id).is_none() {
                    if let Some((_, mask)) = added.iter_mut().find(|(ar, _)| ar == r) {
                        *mask |= bit;
                        coalesced += 1;
                    } else {
                        added.push((r.clone(), bit));
                    }
                }
            }
        }
        variants.extend(added);
        (variants.into_iter().map(|(r, mask)| (r.to_string(), mask)).collect(), coalesced)
    }

    /// The program-fed build against the scan, variant for variant.
    fn assert_same_build<'a>(base: &'a Program, cands: &[Program]) -> TaggedProgram<'a> {
        let got = build_tagged_program(base, cands);
        assert_eq!(show(&got), build_tagged_program_by_scan(base, cands));
        assert_eq!(got.n, cands.len());
        got
    }

    /// The same for candidates that are patches: built straight from the
    /// patches' deltas, and from the whole programs the patches apply to.
    fn assert_same_build_from_patches<'a>(base: &'a Program, patches: &[Patch]) -> TaggedProgram<'a> {
        let outline = ProgramOutline::new(base).unwrap();
        let deltas: Vec<RuleDelta> =
            patches.iter().map(|p| p.delta(base, &outline).unwrap()).collect();
        let programs = applied(base, patches);
        let got = tagged_program(base, &deltas);
        assert_eq!(show(&got), build_tagged_program_by_scan(base, &programs));
        assert_eq!(show(&got), show(&assert_same_build(base, &programs)));
        assert_eq!(got.n, patches.len());
        got
    }

    /// `rule` re-headed and renamed `<id>_copy`, as the explorer's donor
    /// repair builds it.
    fn donor_copy(base: &Program, id: &str) -> Rule {
        let mut copy = base.rule(id).unwrap().clone();
        copy.id = format!("{id}_copy");
        copy.sels[0].rhs = mpr_ndlog::Expr::int(3);
        copy
    }

    #[test]
    fn indexed_build_equals_the_scan_on_single_literal_candidates() {
        let base = fig2_program();
        let tp = assert_same_build_from_patches(&base, &candidate_patches());
        assert_eq!(tp.coalesced, 1);
    }

    #[test]
    fn indexed_build_handles_deleted_and_added_rules() {
        let base = fig2_program();
        // 0: deletes r5. 1 and 3: add the same donor copy (coalesced once).
        // 2: adds a different rule. 4: the base, untouched. 5: an edit that
        // changes nothing (r1's constant set to what it is) — shared, not
        // copied.
        let add = |rule: Rule| Patch::single(Edit::AddRule { rule });
        let copy = donor_copy(&base, "r7");
        let mut other = donor_copy(&base, "r1");
        other.id = "synth0".into();
        let patches = vec![
            Patch::single(Edit::DeleteRule { rule: "r5".into() }),
            add(copy.clone()),
            add(other.clone()),
            add(copy.clone()),
            Patch::default(),
            Patch::single(Edit::SetSelectionExpr {
                rule: "r1".into(),
                sel: 0,
                side: ExprSide::Rhs,
                expr: Expr::int(1),
            }),
        ];
        let tp = assert_same_build_from_patches(&base, &patches);
        assert_eq!(tp.coalesced, 1);
        let mask_of = |id: &str| -> Vec<TagSet> {
            tp.variants.iter().filter(|v| v.rule.id == id).map(|v| v.mask).collect()
        };
        assert_eq!(mask_of("r1"), vec![0b111111]);
        assert_eq!(mask_of("r5"), vec![0b111110], "candidate 0 deleted r5");
        assert_eq!(mask_of("r7_copy"), vec![0b001010], "one variant for both adders");
        assert_eq!(mask_of("synth0"), vec![0b000100]);
        // Added rules follow every base rule.
        let ids: Vec<&str> = tp.variants.iter().map(|v| v.rule.id.as_str()).collect();
        assert_eq!(ids, ["r1", "r5", "r7", "r7_copy", "synth0"]);
    }

    #[test]
    fn indexed_build_resolves_a_duplicated_id_to_its_first_rule() {
        // Not a valid program (`validate` rejects it, and it has no
        // outline to take a patch's delta with), but `Program::rule`
        // answers with the first match and the program-fed build must
        // agree.
        let mut base = fig2_program();
        let mut twin = base.rule("r5").unwrap().clone();
        twin.id = "r1".into();
        base.rules.push(twin.clone());
        assert!(ProgramOutline::new(&base).is_err());
        let mut edited = base.clone();
        edited.rules[0].sels[0].op = CmpOp::Ne;
        let mut swapped = base.clone();
        swapped.rules.swap(0, 3);
        let mut extra = base.clone();
        extra.rules.push(donor_copy(&base, "r7"));
        extra.rules.push(donor_copy(&base, "r7"));
        let cands = [base.clone(), edited, swapped.clone(), extra];
        let tp = assert_same_build(&base, &cands);
        // Both base `r1`s look up the candidate's *first* `r1`: the real
        // one sees itself shared by 0 and 3, edited in 1, the twin in 2;
        // the twin sees itself only in 2 and the others' first `r1` as
        // copies.
        assert_eq!(swapped.rule("r1"), Some(&twin));
        let r1_masks: Vec<TagSet> =
            tp.variants.iter().filter(|v| v.rule.id == "r1").map(|v| v.mask).collect();
        assert_eq!(r1_masks, vec![0b1001, 0b0010, 0b0100, 0b0100, 0b1001, 0b0010]);
    }

    #[test]
    fn a_moved_rule_is_its_base_rule_edited_in_place_for_the_program_fed_build() {
        // `DeleteRule r5` + `AddRule r5'` moves r5 to the end of the
        // patched program. The program-fed build matches rules by id, so
        // it files r5' as r5's copy, right after r5 — as it always has;
        // the delta says what the patch did, and the copy goes last.
        let base = fig2_program();
        let mut r5 = base.rule("r5").unwrap().clone();
        r5.sels[0].op = CmpOp::Ne;
        let patch = Patch::of(vec![
            Edit::DeleteRule { rule: "r5".into() },
            Edit::AddRule { rule: r5 },
        ]);
        let programs = applied(&base, std::slice::from_ref(&patch));
        let by_id = assert_same_build(&base, &programs);
        let ids = |tp: &TaggedProgram| -> Vec<String> {
            tp.variants.iter().map(|v| format!("{}:{}", v.rule.id, v.mask)).collect()
        };
        assert_eq!(ids(&by_id), ["r1:1", "r5:1", "r7:1"]);
        let outline = ProgramOutline::new(&base).unwrap();
        let from_delta = tagged_program(&base, &[patch.delta(&base, &outline).unwrap()]);
        assert_eq!(ids(&from_delta), ["r1:1", "r7:1", "r5:1"]);
    }

    #[test]
    fn mqo_matches_sequential_per_candidate() {
        let base = fig2_program();
        let cands = candidates(&base);
        let setup = setup();
        let joint = mqo_replay(&setup, &base, &cands, &[]);
        assert_eq!(joint.len(), 3);
        for (i, cand) in cands.iter().enumerate() {
            let solo = replay(&setup, cand).unwrap();
            assert_eq!(
                joint[i].delivered, solo.delivered,
                "candidate {i} diverges: joint={:?} solo={:?}",
                joint[i].delivered, solo.delivered
            );
            assert_eq!(joint[i].stats.packet_ins, solo.stats.packet_ins, "candidate {i} punts");
        }
    }

    #[test]
    fn tagged_tables_share_until_an_install_tells_candidates_apart() {
        use mpr_sdn::flowtable::Match;
        use mpr_sdn::packet::Field;
        let topo = fig1();
        let mut t = TaggedTables { topo: &topo, by_switch: BTreeMap::new() };
        let entry = |dpt: i64| {
            FlowEntry::new(10, Match::any().with(Field::DstPort, dpt), vec![Action::Output(1)])
        };
        let variants = |t: &TaggedTables, sw: i64| -> Vec<(TagSet, usize)> {
            t.by_switch.get(&sw).map_or(Vec::new(), |v| {
                v.iter().map(|(mask, table)| (*mask, table.len())).collect()
            })
        };
        // Every candidate: one variant, and a second install lands in it.
        t.install(1, 0b1111, &entry(80));
        t.install(1, 0b1111, &entry(53));
        assert_eq!(variants(&t, 1), [(0b1111, 2)]);
        // A strict subset forks off with a copy; the rest keep theirs.
        t.install(1, 0b0011, &entry(22));
        assert_eq!(variants(&t, 1), [(0b1100, 2), (0b0011, 3)]);
        // One install cutting through both variants and reaching a
        // candidate that had no table here: two forks and a fresh table.
        t.install(1, 0b10110, &entry(25));
        assert_eq!(
            variants(&t, 1),
            [(0b1000, 2), (0b0001, 3), (0b0100, 3), (0b0010, 4), (0b10000, 1)]
        );
        // Whole variants install in place.
        t.install(1, 0b11000, &entry(443));
        assert_eq!(
            variants(&t, 1),
            [(0b1000, 3), (0b0001, 3), (0b0100, 3), (0b0010, 4), (0b10000, 2)]
        );
        // Unknown switches and empty tag sets leave no trace.
        t.install(77, 0b1111, &entry(80));
        t.install(2, 0, &entry(80));
        assert_eq!(t.footprint(), TableFootprint { switches: 1, variants: 5 });
    }

    #[test]
    fn variants_that_arrive_at_the_same_table_are_one_again() {
        use mpr_sdn::flowtable::Match;
        use mpr_sdn::packet::Field;
        let topo = fig1();
        let mut t = TaggedTables { topo: &topo, by_switch: BTreeMap::new() };
        let entry = |field: Field, v: i64, out: i64| {
            FlowEntry::new(10, Match::any().with(field, v), vec![Action::Output(out)])
        };
        let masks = |t: &TaggedTables| -> Vec<TagSet> { t.by_switch[&1].iter().map(|(mask, _)| *mask).collect() };
        let (http, dns) = (entry(Field::DstPort, 80, 1), entry(Field::DstPort, 53, 2));
        // Candidates 0 and 1 install an entry; 2 and 3 install it a packet
        // later and join them — out of a fresh table, and forking off a
        // shared one.
        t.install(1, 0b0011, &http);
        t.install(1, 0b1100, &http);
        assert_eq!(masks(&t), [0b1111]);
        t.install(1, 0b0110, &dns);
        assert_eq!(masks(&t), [0b1001, 0b0110]);
        t.install(1, 0b1000, &dns);
        assert_eq!(masks(&t), [0b0001, 0b1110]);
        // An install the variant already holds changes nothing, and merges
        // nothing.
        t.install(1, 0b0001, &http);
        assert_eq!(masks(&t), [0b0001, 0b1110]);
        t.install(1, 0b0001, &dns);
        assert_eq!(masks(&t), [0b1111]);
        // Two entries that tie (one priority, one field each), installed in
        // opposite orders: equal as sets, and not the same table — the
        // earlier install wins a packet both match.
        let by_src = entry(Field::SrcIp, 5, 3);
        t.install(2, 0b01, &http);
        t.install(2, 0b01, &by_src);
        t.install(2, 0b10, &by_src);
        t.install(2, 0b10, &http);
        let port_at = |i: usize| {
            let hit = t.by_switch[&2][i].1.lookup(&Packet::http(1, 5, 9), 0).unwrap();
            hit.actions.clone()
        };
        assert_eq!((port_at(0), port_at(1)), (vec![Action::Output(1)], vec![Action::Output(3)]));
        assert_eq!(t.footprint(), TableFootprint { switches: 2, variants: 3 });
    }

    #[test]
    fn tagged_seeds_give_every_candidate_its_own_list_in_its_own_order() {
        let t = |n: i64| Tuple::new("Cfg", Value::str("C"), vec![Value::Int(n)]);
        let shared = [t(1), t(2), t(1)];
        let own = [
            None,                            // the shared list
            Some(vec![t(1), t(1)]),          // dropped 2
            Some(vec![t(2), t(1), t(9)]),    // dropped the first 1, added 9
            Some(vec![t(2), t(1), t(1)]),    // reordered: leaves the shared order at the last 1
            Some(vec![]),                    // dropped everything
        ];
        let joint = tagged_seeds(&shared, &own, 0b11111);
        // Read back per candidate, the joint sequence is its list.
        for (i, list) in own.iter().enumerate() {
            let seen: Vec<&Tuple> =
                joint.iter().filter(|(_, tags)| tags >> i & 1 == 1).map(|(s, _)| *s).collect();
            assert_eq!(seen, list.as_deref().unwrap_or(&shared).iter().collect::<Vec<_>>(), "candidate {i}");
        }
        let tags: Vec<TagSet> = joint.iter().map(|(_, tags)| *tags).collect();
        assert_eq!(tags, [0b00011, 0b01101, 0b01111, 0b00100, 0b01000]);
    }

    #[test]
    fn mqo_supported_detects_aggregates() {
        assert!(mqo_supported(&fig2_program()));
        let agg = parse_program("agg", "r1 B(@N,a_count<X>) :- A(@N,X).").unwrap();
        assert!(!mqo_supported(&agg));
    }

    #[test]
    fn a_candidates_own_copy_that_does_not_compile_diverges_up_front() {
        // Candidate 1 adds a rule no tuple reaches, and that does not
        // compile; candidate 2 a rule no tuple reaches, and that does. The
        // base's rules wait for a delta.
        let base = fig2_program();
        let rule = |src: &str| parse_program("added", src).unwrap().rules.remove(0);
        let added = |r: Rule| RuleDelta { added: vec![r], ..RuleDelta::default() };
        let deltas = [
            RuleDelta::default(),
            added(rule("n1 FlowTable(@S,H,P) :- Never(@S,H,X), P := X + Zz.")),
            added(rule("n2 FlowTable(@S,H,P) :- Never(@S,H,P), P > 1.")),
        ];
        let (tagged, setup) = (tagged_program(&base, &deltas), setup());
        let engine = TaggedEngine::new(&tagged, &base.catalog, &setup.codec);
        assert_eq!(engine.diverged, 0b010, "before any step");
        let compiled: Vec<bool> = engine.compiled.iter().map(LazyRule::is_compiled).collect();
        assert_eq!(compiled, [false, false, false, false, true]);
    }

    #[test]
    fn empty_candidate_list() {
        let base = fig2_program();
        assert!(mqo_replay(&setup(), &base, &[], &[]).is_empty());
    }

    #[test]
    fn extra_flows_are_per_candidate() {
        use mpr_sdn::flowtable::{FlowEntry, Match};
        use mpr_sdn::packet::Field;
        let base = fig2_program();
        let cands = vec![base.clone(), base.clone()];
        // Candidate 1 gets a manual entry at S3 → H2 (port 2) plus S1→S3.
        let manual = vec![
            (1i64, FlowEntry::new(50, Match::any().with(Field::DstPort, 80), vec![Action::Output(2)])),
            (3i64, FlowEntry::new(50, Match::any().with(Field::DstPort, 80), vec![Action::Output(2)])),
        ];
        let joint = mqo_replay(&setup(), &base, &cands, &[Vec::new(), manual]);
        let h2 = fig1_hosts::H2;
        assert_eq!(joint[0].delivered.get(&h2).copied().unwrap_or(0), 0);
        assert!(joint[1].delivered.get(&h2).copied().unwrap_or(0) > 0);
    }
}
