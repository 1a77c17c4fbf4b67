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
//! the base program's rules and the candidates' copies from their deltas,
//! so it costs `O(base rules + rules the candidates touch)` to build, a
//! reference and a tag set per rule, and nobody materialises a patched
//! program on this path: the debugger takes each repair's `Patch::delta`
//! and hands the deltas over. Callers that hold whole patched programs
//! ([`mqo_replay`]) get the same builder: their programs are diffed
//! against the base into deltas first. Whole programs are applied only where one must compile:
//! the per-candidate fallback replay ([`crate::replay_candidates`]).
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
//! after diverging travel on as one flight. What a hit's actions do is the
//! simulator's own code, [`mpr_sdn::sim::apply_actions`], over the tagged
//! [`DataPlane`] (`Forwarder`); what a host counts is
//! [`SimStats::arrive`]. Counters are exact per
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
//! visits is the engine's [`mpr_runtime::TriggerDispatch`]: the base
//! program's [`TriggerIndex`], which the observation run's engine built
//! and the debugger hands over ([`mqo_replay_indexed`]), read through a
//! [`DerivedDispatch`]. `TaggedEngine` indexes only the candidates' copies
//! and added rules, on the index's column; a base rule is found through
//! the index and renumbered to its variant, one every candidate changed or
//! deleted never fires, and a delta fires exactly the variants, in exactly
//! the order, that grouping every variant anew would fire. This module's
//! own is what a tuple carries (a [`TagSet`]; a head's is the intersection
//! of its body's) and the loop around the firings, which keeps the
//! engine's discipline (`batch.rs`) in its own terms. A step — a seed or a
//! PacketIn — runs in *rounds*. Per table the state is one append-only
//! vector of `(tuple, tags)` rows with a `stable` watermark; a state head
//! derived in a round is held back until the next round appends it, so a
//! rule fired by the same delta does not see it. With the delta at body
//! position `i`, an atom after `i` reads the rows below the watermark and
//! an atom before it every row: two deltas of one round fire their pair
//! once. An *event* head is a delta of the next round every time it is
//! derived, and never a row.
//!
//! Who holds which payload is one keyed table, as the engine's store is
//! one: per table, location and primary-key columns (the declared keys,
//! or every column), the payloads admitted and the candidates holding each.
//! A state head — a seed, a derived tuple, an output tuple alike — is
//! *admitted* by one lookup in it, and is fresh for the candidates that do
//! not hold it yet, visible or held back. A second payload under the key
//! replaces the first, as in the engine; in a table some rule reads it
//! hands its holders back instead (Scope). A fresh head of one of the
//! codec's output tables is a control message as well as a row, and an
//! event one is a control message every time it is derived. So a seeded
//! output tuple derived again is silent, as `NdlogController::seed` leaves
//! it. Seeds are tagged like everything else (`tagged_seeds`).
//!
//! A firing matches into one scratch the replay keeps ([`ScanScratch`]),
//! and admission finds a head's slot by hashing its key columns where they
//! lie.
//!
//! # Punts that change nothing
//!
//! A punt is stepped once per what its rules can tell apart, by the rule
//! the engine answers a first occurrence by, [`mpr_runtime::QuietSteps`],
//! under its tags while `admitted` stands. A step changed nothing where
//! `fire_scan` found no complete match, and no reply, `diverged`,
//! `admitted` or `f_unique` id moved. An answered punt is counted
//! ([`JointWork::skipped`]).
//!
//! # Repeated injections: the injection memo
//!
//! A repeat is answered by the simulator's own [`InjectionMemo`]
//! (`mpr_sdn::sim`, "Repeated injections"); what a hit adds here is its
//! counter deltas per tag class. The key reads the packet fields the
//! replay reads (`fields_read`), and the memo holds while the four
//! `Standing` counters do — installs, fresh admissions, diverged
//! candidates, `f_unique` ids. It is exact: no field off the key is read
//! or written (a `Modify` target is in the key), so two injections from
//! one host equal on the key are forwarded, joined, punted, answered and
//! counted alike while the state stands, and counters are sums. Unlike the
//! simulator's, a filed injection may punt: the joint controller writes no
//! log, and a punt that moved nothing is answered as it was. A repeat
//! records its deltas as it forwards and is filed (if it moved the state,
//! the next lookup flushes it unhit); a hit, looked up before the host's
//! attachment, forwards nothing.
//!
//! # Scope: what is checked, and handed back
//!
//! The replay answers for a candidate as far as that mirrors the engine,
//! and says where it does not: [`JointReplay::diverged`] collects, while
//! it runs, the candidates that met
//!
//! - a *second payload under a proper primary key* of a state table some
//!   rule reads: the engine replaces the first and retracts what it
//!   supported, which here would take support counts per tag (rows are
//!   append-only); in a table no rule reads nothing depends on the first,
//!   and the replacement is mirrored;
//! - a *rule that does not compile*: a candidate's own copies are checked
//!   up front (the engine refuses the whole program), a borrowed base rule
//!   when a delta first reaches it (the debugger's base passed the
//!   observation engine's checks, so only a direct caller's can fail);
//! - a *step that draws an `f_unique` id*: the engine never files such a
//!   step, and each candidate would draw from its own counter;
//! - a *step over the engine's budget*: more matches than
//!   `setup.engine.max_derivations`, where the engine fails;
//! - a *reply that punts again* (a `PacketOut` to `Action::Controller`):
//!   `TupleCodec::decode` makes none (its `PacketOut` is an `Output` or a
//!   `Drop`), so the replay counts no hop for one and hands its candidates
//!   back should one ever arrive.
//!
//! The joint network has no clock and no faults. Flights advance one hop
//! round at a time, a flight's punt is answered before the next flight is
//! looked up, and a candidate's flights keep the order it sent them in
//! (`join_flights`) — the simulator's, which answers a punt on arrival and
//! takes packets first in, first out. So of two copies of a packet (a
//! flood, two `PacketOut`s) the one behind the other's punt sees its
//! installs in both. Under a fault plan (`setup.config.faults`) the replay
//! names every candidate up front and forwards nothing.
//!
//! Callers replay the named candidates on the per-candidate fallback
//! ([`crate::replay_candidates`]; [`mqo_replay`] does it itself). For the
//! rest the claim is the whole `SimStats` of a sequential replay: the
//! workspace's `tests/prop_mqo.rs` holds it to one `inject` + `run` per
//! packet on a pipelined engine, with no memo anywhere.
//! DESIGN.md, "Backtesting", has the reasons.

use crate::replay::{replay_with_extra_flows, BacktestSetup, ReplayOutcome};
use mpr_ndlog::eval::CountingFuncs;
use mpr_ndlog::patch::RuleDelta;
use mpr_ndlog::{Catalog, Program, Rule, Tuple, Value};
use mpr_runtime::{DerivedDispatch, DerivedTable, GroupReads, LazyRule, Prehashed, QuietSteps, ScanScratch, TriggerIndex};
use mpr_sdn::controller::{CtrlMsg, PacketInMsg, PktArg, TupleCodec};
use mpr_sdn::flowtable::{proactive_routes, Action, FlowEntry, FlowTable};
use mpr_sdn::packet::{Field, Packet};
use mpr_sdn::sim::{apply_actions, DataPlane, InjectionMemo, SimStats};
use mpr_sdn::topology::{NodeRef, Topology};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// A set of candidate tags (bit i = candidate i). At most 64 candidates
/// per joint backtest — far above the paper's 9–13.
pub type TagSet = u64;

/// One rule variant in the backtesting program: 16 bytes, whatever the
/// rule.
#[derive(Debug, Clone, Copy)]
pub struct TaggedVariant<'a> {
    /// The rule: the base program's own, or a candidate's modified copy,
    /// as its [`RuleDelta`] holds it.
    pub rule: &'a Rule,
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
    /// The base program's rules.
    base: &'a [Rule],
    /// Per base rule, its variant; `None` where every candidate changed or
    /// deleted it.
    at: Vec<Option<u32>>,
    /// The candidates' copies and added rules, ascending.
    own: Vec<usize>,
}

/// Build the backtesting program for the candidates `deltas` describe
/// (candidate `i` is `base` overlaid with `deltas[i]`): every base rule
/// once, for the candidates that leave it alone, followed by the copies of
/// the candidates that edited it; then the rules candidates added. It
/// borrows every rule, from `base` or from `deltas`, and copies none.
pub fn tagged_program<'a>(base: &'a Program, deltas: &'a [RuleDelta]) -> TaggedProgram<'a> {
    assert!(deltas.len() <= 64, "at most 64 candidates per joint backtest");
    let full: TagSet = if deltas.is_empty() { 0 } else { (!0u64) >> (64 - deltas.len()) };
    let rules = base.rules.len();
    // Per base rule, the candidates that kept it verbatim: they share the
    // original.
    let mut shared: Vec<TagSet> = vec![full; rules];
    // Per base position, the copies of the candidates that modified the
    // rule; under `rules`, the rules candidates added. Equal copies are
    // coalesced into one variant.
    let mut copies: BTreeMap<usize, Vec<(&'a Rule, TagSet)>> = BTreeMap::new();
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
    let (mut at, mut own) = (Vec::with_capacity(rules), Vec::new());
    let mut add_owned = |variants: &mut Vec<TaggedVariant<'a>>, pos| {
        for (rule, mask) in copies.remove(&pos).into_iter().flatten() {
            own.push(variants.len());
            variants.push(TaggedVariant { rule, mask });
        }
    };
    for (pos, rule) in base.rules.iter().enumerate() {
        let kept = shared[pos] != 0 || deltas.is_empty();
        at.push(kept.then_some(variants.len() as u32));
        if kept {
            variants.push(TaggedVariant { rule, mask: shared[pos] });
        }
        add_owned(&mut variants, pos);
    }
    add_owned(&mut variants, rules);
    TaggedProgram { variants, n: deltas.len(), coalesced, base: &base.rules, at, own }
}

impl TaggedProgram<'_> {
    /// The variants' trigger dispatch: `index`, the base program's, for
    /// the base rules, and the candidates' copies and added rules grouped
    /// on their own.
    fn dispatch<'b>(&'b self, index: &'b TriggerIndex) -> DerivedDispatch<'b> {
        DerivedDispatch::new(index, self.base, &self.at, &self.own, |vi| self.variants[vi].rule)
    }
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

/// The primary-key columns of `t`, in column order: the `declared` ones,
/// or every column when none is declared.
fn key_columns<'t>(t: &'t Tuple, declared: &'t [usize]) -> impl Iterator<Item = &'t Value> {
    let all = declared.is_empty();
    t.args.iter().enumerate().filter(move |(c, _)| all || declared.contains(c)).map(|(_, v)| v)
}

/// Whether `a` and `b` lie under one key: table, location and the
/// `declared` primary-key columns ([`key_columns`]).
fn same_key(a: &Tuple, b: &Tuple, declared: &[usize]) -> bool {
    a.table == b.table && a.loc == b.loc && key_columns(a, declared).eq(key_columns(b, declared))
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
    dispatch: &'a DerivedDispatch<'a>,
    /// The packet-in table's entry, looked up once.
    punt: Option<DerivedTable<'a>>,
    /// What each dispatch group of the packet-in table reads, by
    /// [`DerivedTable::group_number`], made at its first punt.
    punt_reads: Prehashed<Option<GroupReads>>,
    /// Seeds and derived state, output tables among them; never an event.
    state: HashMap<Arc<str>, TaggedTable>,
    /// Who holds which payload: the hash of a state tuple's table,
    /// location and primary-key columns → the payloads admitted under the
    /// keys of that hash, each with the candidates that hold it. Keyed by
    /// the hash itself, so nothing hashes a second time.
    held: Prehashed<Vec<(Tuple, TagSet)>>,
    hasher: RandomState,
    funcs: CountingFuncs,
    /// The engine's per-step budget ([`mpr_runtime::Options::max_derivations`]):
    /// a step that matches more hands its candidates back.
    budget: u64,
    /// The candidates that met what this evaluator does not mirror.
    diverged: TagSet,
    /// How many admissions were fresh for someone, each a change.
    admitted: u64,
    /// [`Self::step`]'s `round` / `pending` / `heads`, empty between steps.
    scratch: [Vec<(Tuple, TagSet)>; 3],
    /// The partial matches of a firing.
    fire: ScanScratch<TagSet>,
    /// Punts answered, each by a [`Self::step`].
    steps: u64,
    quiet: QuietSteps,
}

impl<'a> TaggedEngine<'a> {
    /// The engine of `program`, whose variants `dispatch` dispatches.
    fn new(
        program: &'a TaggedProgram<'a>,
        dispatch: &'a DerivedDispatch<'a>,
        catalog: &'a Catalog,
        codec: &'a TupleCodec,
        budget: u64,
    ) -> Self {
        let compiled: Vec<LazyRule> = program.variants.iter().map(|_| LazyRule::default()).collect();
        // The engine refuses a program one of whose rules does not
        // compile, whether or not a delta ever reaches the rule.
        let mut diverged: TagSet = 0;
        for &vi in &program.own {
            let v = &program.variants[vi];
            if compiled[vi].get(v.rule, catalog).is_none() {
                diverged |= v.mask;
            }
        }
        TaggedEngine {
            program,
            catalog,
            codec,
            compiled,
            dispatch,
            punt: dispatch.get(&codec.packet_in_table),
            punt_reads: Prehashed::default(),
            state: HashMap::new(),
            held: Prehashed::default(),
            hasher: RandomState::new(),
            funcs: CountingFuncs::starting_at(1000),
            budget,
            diverged,
            admitted: 0,
            scratch: Default::default(),
            fire: ScanScratch::default(),
            steps: 0,
            quiet: QuietSteps::default(),
        }
    }

    fn declared_keys(&self, table: &str) -> &'a [usize] {
        self.catalog.get(table).map_or(&[], |s| &s.keys)
    }

    fn is_event(&self, table: &str) -> bool {
        self.catalog.get(table).is_some_and(|s| !s.is_state())
    }

    /// The candidates of `tags` for which the state tuple `t` is new —
    /// neither visible nor held back — who hold it from now on. A second
    /// payload under `t`'s primary key replaces the first, as the engine
    /// replaces it; in a table some rule reads, where the engine would also
    /// retract what the first supported, its holders are handed back.
    fn admit(&mut self, t: &Tuple, tags: TagSet) -> TagSet {
        let declared = self.declared_keys(&t.table);
        let read = self.dispatch.get(&t.table).is_some();
        let mut hasher = self.hasher.build_hasher();
        (&t.table, &t.loc).hash(&mut hasher);
        key_columns(t, declared).for_each(|v| v.hash(&mut hasher));
        let slot = self.held.entry(hasher.finish()).or_default();
        let mut known: Option<TagSet> = None;
        for (payload, holders) in slot.iter_mut() {
            if payload == t {
                known = Some(*holders);
                *holders |= tags;
            } else if same_key(payload, t, declared) {
                if read {
                    self.diverged |= *holders & tags;
                } else {
                    *holders &= !tags;
                }
            }
        }
        if known.is_none() {
            slot.push((t.clone(), tags));
        }
        let fresh = tags & !known.unwrap_or(0);
        self.admitted += u64::from(fresh != 0);
        fresh
    }

    /// One engine step: `delta` is inserted for `tags` and the program run
    /// to fixpoint, in rounds. With an `answer`, the control messages the
    /// codec decodes from fresh heads are pushed to it in order, each with
    /// the candidates the head is fresh for; a seed is answered nowhere.
    /// Returns the complete body matches of the step's firings.
    fn step(&mut self, delta: Tuple, tags: TagSet, mut answer: Option<(&PacketInMsg, &mut Vec<(CtrlMsg, TagSet)>)>) -> u64 {
        let tags = if self.is_event(&delta.table) { tags } else { self.admit(&delta, tags) };
        if tags == 0 {
            return 0;
        }
        // This round's deltas, the heads it holds back for the next, and
        // one variant's heads at a time.
        let [mut round, mut pending, mut heads] = std::mem::take(&mut self.scratch);
        round.push((delta, tags));
        let mut matched = 0u64;
        while !round.is_empty() {
            // The round begins: its state deltas become visible, as recent.
            for (t, ttags) in &round {
                if !self.is_event(&t.table) {
                    let table = self.state.entry(Arc::clone(&t.table)).or_default();
                    table.rows.push((t.clone(), *ttags));
                }
            }
            'deltas: for (delta, dtags) in &round {
                // The variants this delta can fire, in program order: its
                // value's keyed group merged with the residual list.
                let Some(dispatch) = DerivedDispatch::get(self.dispatch, &delta.table) else {
                    continue;
                };
                for (vi, ai) in dispatch.triggers_for(delta) {
                    let variant = &self.program.variants[vi];
                    let active = variant.mask & dtags;
                    if active == 0 {
                        continue;
                    }
                    let Some(rule) = self.compiled[vi].get(variant.rule, self.catalog) else {
                        self.diverged |= active;
                        continue;
                    };
                    let state = &self.state;
                    let issued = self.funcs.issued();
                    matched += rule.fire_scan(
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
                        &mut self.fire,
                        &mut heads,
                    ) as u64;
                    if self.funcs.issued() != issued {
                        // An `f_unique` id: each candidate draws its own.
                        self.diverged |= active;
                    }
                    let head_is_event = rule.head_is_event();
                    for (head, htags) in heads.drain(..) {
                        // A transient event triggers every time it is
                        // derived; state, for whom it is new. What an output
                        // table gains is a control message too.
                        let fresh = if head_is_event { htags } else { self.admit(&head, htags) };
                        if fresh == 0 {
                            continue;
                        }
                        if let Some((msg, out)) = answer.as_mut() {
                            out.extend(self.codec.decode(&head, msg).map(|cm| (cm, fresh)));
                        }
                        pending.push((head, fresh));
                    }
                    if matched > self.budget {
                        // A runaway: where the engine fails the step. What
                        // it admitted and never appends was admitted for
                        // candidates of `tags` alone, handed back here.
                        self.diverged |= tags;
                        pending.clear();
                        break 'deltas;
                    }
                }
            }
            for (t, _) in &round {
                if let Some(table) = self.state.get_mut(&*t.table) {
                    table.seal();
                }
            }
            std::mem::swap(&mut round, &mut pending);
            pending.clear();
        }
        self.scratch = [round, pending, heads];
        matched
    }

    /// Evaluate the tagged program on one PacketIn under `tags`: pushes the
    /// control messages it answers with, and the tag sets they apply to. A
    /// punt [`QuietSteps`] answers is counted and not stepped.
    fn on_packet_in(&mut self, msg: &PacketInMsg, tags: TagSet, out: &mut Vec<(CtrlMsg, TagSet)>) {
        let delta = self.codec.packet_in_tuple(msg);
        let (variants, compiled, catalog) = (&self.program.variants, &self.compiled, self.catalog);
        let rule = |vi: usize| compiled[vi].get(variants[vi].rule, catalog);
        let heard = self.punt.and_then(|t| t.quiet_view(&delta, &mut self.punt_reads, rule));
        let Some(key) = self.quiet.lookup(tags, &delta, heard, self.admitted) else {
            return;
        };
        self.steps += 1;
        let standing = (self.diverged, self.admitted, self.funcs.issued(), out.len());
        let matched = self.step(delta, tags, Some((msg, out)));
        let quiet = matched == 0 && standing == (self.diverged, self.admitted, self.funcs.issued(), out.len());
        if let Some(key) = key.filter(|_| quiet) {
            self.quiet.file(key);
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
    /// How many installs were asked for.
    installs: u64,
}

impl TaggedTables<'_> {
    /// Install `entry` at `switch` for the candidates in `ctags`. Unknown
    /// switches are ignored, as [`mpr_sdn::flowtable::FlowTables::install`]
    /// ignores them.
    fn install(&mut self, switch: i64, ctags: TagSet, entry: &FlowEntry) {
        self.installs += 1;
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
/// controller evaluation. The round carries the hop count its flights
/// share.
struct Flight<N> {
    at: N,
    port: i64,
    pkt: Packet,
    tags: TagSet,
}

/// Add a flight to `list`. Candidates whose copies of a packet coincide
/// travel (and punt) together; overlapping tags mean a genuine duplicate,
/// which stays a flight of its own. Nothing joins a flight ahead of another
/// of its candidates': each keeps the simulator's order, the order it sent.
fn join_flights<N: PartialEq>(list: &mut Vec<Flight<N>>, f: Flight<N>) {
    let same = |g: &Flight<N>| g.at == f.at && g.port == f.port && g.pkt == f.pkt;
    let i = list.iter().position(|g| g.tags & f.tags == 0 && same(g));
    match i {
        Some(i) if list[i + 1..].iter().all(|g| g.tags & f.tags == 0) => list[i].tags |= f.tags,
        _ => list.push(f),
    }
}

/// The data-plane half of the joint replay, with a tag set in place of one
/// network: the [`DataPlane`] the simulator's own [`apply_actions`] sends a
/// hit's or a `PacketOut`'s packets to.
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
    /// While an injection is recorded for the memo, its bumps, by class.
    tape: Option<BTreeMap<TagSet, SimStats>>,
    /// Flights of the next hop round.
    next: Vec<Flight<NodeRef>>,
    /// PacketIns not yet evaluated, by switch.
    punts: Vec<Flight<i64>>,
}

impl Forwarder<'_> {
    /// Bump the counters of the class `tags`, once for all its candidates.
    fn count(&mut self, tags: TagSet, bump: impl FnOnce(&mut SimStats)) {
        if tags != 0 {
            bump(self.tape.as_mut().unwrap_or(&mut self.classes).entry(tags).or_default());
        }
    }

    /// The per-candidate counters: every class added into each of its
    /// members once.
    fn fold(&self, n: usize) -> Vec<SimStats> {
        let mut stats = vec![SimStats::default(); n];
        for (tags, class) in &self.classes {
            for_each_tag(*tags, |t| stats[t].add(class, 1));
        }
        stats
    }
}

/// The joint replay's packets carry the candidates they travel for.
impl DataPlane<TagSet> for Forwarder<'_> {
    fn topology(&self) -> &Topology {
        self.topo
    }

    fn emit(&mut self, switch: i64, out_port: i64, pkt: Packet, tags: TagSet) {
        match self.topo.peer(NodeRef::Switch(switch), out_port) {
            Some((at, port)) => join_flights(&mut self.next, Flight { at, port, pkt, tags }),
            None => self.drop_policy(tags),
        }
    }

    /// Queue a PacketIn; identical ones are evaluated once for all their
    /// candidates.
    fn punt(&mut self, switch: i64, in_port: i64, pkt: Packet, tags: TagSet) {
        join_flights(&mut self.punts, Flight { at: switch, port: in_port, pkt, tags });
    }

    fn drop_policy(&mut self, tags: TagSet) {
        self.count(tags, |s| s.dropped_policy += 1);
    }
}

/// The packet fields the joint replay reads, a flag per [`Field::ALL`]
/// entry: the codec's `packet_in_args` (the event a punt steps) and
/// `flow_match_args` (what a FlowMod's entry matches), `DstIp` and
/// `DstPort` ([`SimStats::arrive`]; `DstIp` is the proactive routes' match
/// too), and the match fields and `Modify` targets of the manual entries.
/// Nothing else reads a packet (`InPort` is the path's, not the packet's),
/// so `seq`, `payload` and the rest stay out of an injection's key. A field
/// the replay starts reading must join this list.
fn fields_read(codec: &TupleCodec, extra_flows: &[ExtraFlows]) -> [bool; Field::ALL.len()] {
    let by_codec = codec.packet_in_args.iter().chain(&codec.flow_match_args);
    let by_codec = by_codec.filter_map(|arg| if let PktArg::Field(f) = arg { Some(*f) } else { None });
    let by_hand = extra_flows.iter().flatten().flat_map(|(_, e)| {
        let modified = e.actions.iter().filter_map(|a| if let Action::Modify(f, _) = a { Some(*f) } else { None });
        e.m.fields.iter().map(|(f, _)| *f).chain(modified)
    });
    let read: Vec<Field> = [Field::DstIp, Field::DstPort].into_iter().chain(by_codec).chain(by_hand).collect();
    Field::ALL.map(|f| read.contains(&f))
}

/// What the injection memo holds under: installs asked for, fresh
/// admissions, diverged candidates, `f_unique` ids drawn. Each only grows:
/// the state stood exactly while they are equal.
type Standing = (u64, u64, TagSet, i64);

/// Add a filed injection's per-class deltas into `classes`, `times` over.
fn add_classes(classes: &mut BTreeMap<TagSet, SimStats>, deltas: &BTreeMap<TagSet, SimStats>, times: u64) {
    for (tags, delta) in deltas {
        classes.entry(*tags).or_default().add(delta, times);
    }
}

/// [`mqo_replay_deltas`] for `candidates` given as fully patched programs
/// derived from `base`, on the setup's seeds; the outcomes only, those of
/// [`JointReplay::diverged`] taken from one fallback replay each. A
/// candidate the fallback refuses too (a rule of it does not compile)
/// keeps the joint outcome — that of the candidate without the rule, or
/// under a fault plan an empty one.
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
    /// Punts answered without a step by [`mpr_runtime::QuietSteps`] (module
    /// docs, "Punts that change nothing").
    pub skipped: u64,
    /// Injections answered from the memo: nothing forwarded.
    pub replayed: u64,
    /// The punts inside the replayed injections: none of them stepped.
    pub replayed_punts: u64,
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
/// The joint network is fault-free: under a fault plan every candidate is
/// in [`JointReplay::diverged`], its outcome empty, and nothing is
/// forwarded (module docs, "Scope").
pub fn mqo_replay_deltas(
    setup: &BacktestSetup,
    base: &Program,
    deltas: &[RuleDelta],
    extra_flows: &[ExtraFlows],
    seeds: &[Option<Vec<Tuple>>],
) -> JointReplay {
    mqo_replay_indexed(setup, base, None, deltas, extra_flows, seeds)
}

/// [`mqo_replay_deltas`] with `index`, the trigger index of `base` a batch
/// engine of it built ([`mpr_runtime::Engine::trigger_index`]); without
/// one the replay builds it.
pub fn mqo_replay_indexed(
    setup: &BacktestSetup,
    base: &Program,
    index: Option<&TriggerIndex>,
    deltas: &[RuleDelta],
    extra_flows: &[ExtraFlows],
    seeds: &[Option<Vec<Tuple>>],
) -> JointReplay {
    let n = deltas.len();
    let full: TagSet = if n == 0 { 0 } else { (!0u64) >> (64 - n) };
    if n == 0 || !setup.config.faults.is_empty() {
        let outcomes = vec![ReplayOutcome::of(SimStats::default()); n];
        return JointReplay { outcomes, diverged: full, ..JointReplay::default() };
    }
    let topo: &Topology = &setup.topology;
    let mut tables = TaggedTables { topo, by_switch: BTreeMap::new(), installs: 0 };
    let built;
    let index = match index {
        Some(index) => index,
        None => {
            built = TriggerIndex::new(base);
            &built
        }
    };
    let tagged = tagged_program(base, deltas);
    let dispatch = tagged.dispatch(index);
    let mut engine = TaggedEngine::new(&tagged, &dispatch, &base.catalog, &setup.codec, setup.engine.max_derivations);
    for (seed, tags) in tagged_seeds(&setup.seeds, seeds.get(..n).unwrap_or(seeds), full) {
        // What a seed derives into an output table is held from then on and
        // sent nowhere: `NdlogController::seed` drops the engine's answer.
        engine.step(seed.clone(), tags, None);
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

    let mut fw = Forwarder { topo, classes: BTreeMap::new(), tape: None, next: Vec::new(), punts: Vec::new() };
    let mut work = JointWork::default();
    let read = fields_read(&setup.codec, extra_flows);
    let mut memo = InjectionMemo::new(Standing::default());
    let (mut replayed, mut replayed_punts) = (0, 0);
    // Hop-round buffers, reused across every injection.
    let mut flights: Vec<Flight<NodeRef>> = Vec::new();
    let mut batch: Vec<Flight<i64>> = Vec::new();
    let mut replies: Vec<(CtrlMsg, TagSet)> = Vec::new();

    for (src, pkt) in setup.workload.iter() {
        let (hash, key) = memo.key(*src, pkt, &read);
        let now: Standing = (tables.installs, engine.admitted, engine.diverged, engine.funcs.issued());
        if let Some(deltas) = memo.answer(hash, &key, now, |d, times| add_classes(&mut fw.classes, d, times)) {
            replayed += 1;
            // Each punt bumped one class's `packet_ins`, once.
            replayed_punts += deltas.values().map(|class| class.packet_ins).sum::<u64>();
            continue;
        }
        let Some((sw0, port0)) = topo.host_attachment(*src) else {
            continue;
        };
        // A key's first occurrence is forwarded and nothing more; a repeat
        // is recorded as it goes, and filed.
        fw.tape = (!memo.first(hash)).then(BTreeMap::new);
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
                        fw.count(f.tags, |s| s.arrive(h, &f.pkt));
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
                        apply_actions(&mut fw, s, f.port, f.pkt.clone(), &e.actions, here);
                    }
                }
                if missed != 0 {
                    fw.punt(s, f.port, f.pkt, missed);
                }
                // Shared controller evaluation per distinct punt, before the
                // next lookup, as the simulator's on arrival. No reply punts
                // again (Scope), so one pass answers them all.
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
                                if action == Action::Controller {
                                    engine.diverged |= ctags;
                                    continue;
                                }
                                apply_actions(&mut fw, switch, p.port, packet, &[action], ctags);
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
        if let Some(deltas) = fw.tape.take() {
            memo.file(hash, key, deltas);
        }
    }
    memo.flush(|d, times| add_classes(&mut fw.classes, d, times));
    let (steps, skipped) = (engine.steps, engine.quiet.answered());
    let work = JointWork { steps, skipped, replayed, replayed_punts, classes: fw.classes.len() as u64, ..work };
    let stats = fw.fold(n);
    #[cfg(debug_assertions)]
    check_replay(setup, &tables, &engine, &fw.classes, &stats, &work);
    let outcomes = stats.into_iter().map(ReplayOutcome::of).collect();
    JointReplay { outcomes, diverged: engine.diverged, footprint: tables.footprint(), work }
}

/// What a finished replay must leave behind (debug builds): the variants'
/// invariant on every switch; state rows under a watermark with the tags
/// they were sealed with; no candidate but a handed-back one holding two
/// payloads under one key; classes that are non-empty, each
/// folded into each of its members exactly once — the counters summed over
/// candidates are those of the classes, each taken `|tags|` times — with
/// every candidate injected every attached packet; and every punt a step,
/// a skipped quiet step, or inside an injection answered from the memo.
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
    for slot in engine.held.values() {
        for (i, (a, by_a)) in slot.iter().enumerate() {
            for (b, by_b) in &slot[..i] {
                if same_key(a, b, engine.declared_keys(&a.table)) {
                    assert_eq!(by_a & by_b & !engine.diverged, 0, "{a:?} and {b:?}: one key, both held");
                }
            }
        }
    }
    assert!(!classes.contains_key(&0), "a class of no candidate");
    let attached = setup.workload.iter().filter(|(src, _)| setup.topology.host_attachment(*src).is_some());
    let attached = attached.count() as u64;
    assert!(stats.iter().all(|s| s.injected == attached), "a candidate missed an injection");
    let mut by_candidate = SimStats::default();
    stats.iter().for_each(|s| by_candidate.add(s, 1));
    let mut by_class = SimStats::default();
    for (tags, class) in classes {
        by_class.add(class, tags.count_ones().into());
    }
    assert_eq!(by_candidate, by_class, "a class was not folded once per member");
    let punts: u64 = classes.values().map(|class| class.packet_ins).sum();
    assert_eq!(work.steps + work.skipped + work.replayed_punts, punts, "a punt neither stepped, skipped nor replayed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay, BacktestSetup};
    use mpr_ndlog::patch::{Edit, Patch, ProgramOutline};
    use mpr_ndlog::{parse_program, CmpOp, Expr, ExprSide, Value};
    use mpr_runtime::TriggerDispatch;
    use mpr_sdn::controller::TupleCodec;
    use mpr_sdn::flowtable::Action;
    use mpr_sdn::sim::SimConfig;
    use mpr_sdn::topology::{fig1, fig1_hosts};
    use proptest::prelude::*;

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
        let deltas = deltas_between(&base, &cands);
        let tp = tagged_program(&base, &deltas);
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
        // The base's rules are the base's own; only the two r7 copies are
        // the candidates'.
        let owned: Vec<&str> = tp
            .variants
            .iter()
            .filter(|v| !base.rules.as_ptr_range().contains(&(v.rule as *const _)))
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

    /// The program-fed build against the scan, variant for variant; the
    /// deltas it was built from.
    fn assert_same_build(base: &Program, cands: &[Program]) -> Vec<RuleDelta> {
        let deltas = deltas_between(base, cands);
        let got = tagged_program(base, &deltas);
        assert_eq!(show(&got), build_tagged_program_by_scan(base, cands));
        assert_eq!(got.n, cands.len());
        deltas
    }

    /// The same for candidates that are patches: built straight from the
    /// patches' deltas, and from the whole programs the patches apply to.
    fn assert_same_build_from_patches(base: &Program, patches: &[Patch]) -> Vec<RuleDelta> {
        let outline = ProgramOutline::new(base).unwrap();
        let deltas: Vec<RuleDelta> =
            patches.iter().map(|p| p.delta(base, &outline).unwrap()).collect();
        let programs = applied(base, patches);
        let got = tagged_program(base, &deltas);
        assert_eq!(show(&got), build_tagged_program_by_scan(base, &programs));
        assert_eq!(show(&got), show(&tagged_program(base, &assert_same_build(base, &programs))));
        assert_eq!(got.n, patches.len());
        deltas
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
        let deltas = assert_same_build_from_patches(&base, &candidate_patches());
        let tp = tagged_program(&base, &deltas);
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
        let deltas = assert_same_build_from_patches(&base, &patches);
        let tp = tagged_program(&base, &deltas);
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
        let deltas = assert_same_build(&base, &cands);
        let tp = tagged_program(&base, &deltas);
        // Both base `r1`s look up the candidate's *first* `r1`: the real
        // one sees itself shared by 0 and 3, edited in 1, the twin in 2;
        // the twin sees itself only in 2 and the others' first `r1` as
        // copies.
        assert_eq!(swapped.rule("r1"), Some(&twin));
        let r1_masks: Vec<TagSet> =
            tp.variants.iter().filter(|v| v.rule.id == "r1").map(|v| v.mask).collect();
        assert_eq!(r1_masks, vec![0b1001, 0b0010, 0b0100, 0b0100, 0b1001, 0b0010]);
    }

    /// HTTP packets from the Internet to H2 ride the proactive routes and
    /// never punt; one to an address no host has misses at S1, and its
    /// FlowMod puts an HTTP entry above the routes that sends every later
    /// one out of a port with no peer. `FlowTable` is an event table here:
    /// the install is all that moves, no state row and no live output.
    #[test]
    fn an_install_between_two_key_equal_injections_flushes_the_memo() {
        let base = parse_program(
            "flush",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, event, 2, keys()).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 9.
            ",
        )
        .unwrap();
        // `seq` (and with it `src_port`, which fig. 2's codec does not
        // read) differs in every packet: the key does not.
        let http = |seq: u64, dst: i64| (fig1_hosts::INTERNET, Packet::http(seq, fig1_hosts::INTERNET, dst));
        let mut workload: Vec<_> = (0..3).map(|i| http(i, fig1_hosts::H2)).collect();
        workload.push(http(3, 999));
        workload.extend((4..7).map(|i| http(i, fig1_hosts::H2)));
        let setup = BacktestSetup { workload: Arc::new(workload), proactive_routes: true, ..setup() };
        let joint = mqo_replay_deltas(&setup, &base, &vec![RuleDelta::default(); 2], &[], &[]);
        let solo = replay(&setup, &base).unwrap();
        assert_eq!((solo.stats.delivered_to(fig1_hosts::H2), solo.stats.dropped_policy), (3, 3));
        for outcome in &joint.outcomes {
            assert_eq!(outcome.stats, solo.stats);
        }
        // The second packet is filed, the third replayed; the install
        // flushes the memo, so the fifth is forwarded again — out of port
        // 9 — and filed, and the last two are replayed.
        assert_eq!((joint.work.replayed, joint.work.steps, joint.work.replayed_punts), (3, 1, 0));
    }

    /// `r0` files a `Cfg` for a punt at S3; `r1` answers a punt above S5
    /// whose destination port has one. A punt elsewhere reads its location,
    /// its destination port and `Swi > 5`: the switch itself reaches only
    /// `r1`'s head.
    fn quiet_program() -> Program {
        parse_program(
            "quiet",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(Cfg, infinity, 2, keys(0)).
            materialize(FlowTable, infinity, 2, keys(0,1)).
            r0 Cfg(@C,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Prt := 2.
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi > 5, Cfg(@C,Hdr,Prt).
            ",
        )
        .unwrap()
    }

    /// A punt at `switch` of a packet to `dst_port`, for `tags`: the replies.
    fn punt(engine: &mut TaggedEngine, switch: i64, dst_port: i64, tags: TagSet) -> Vec<(CtrlMsg, TagSet)> {
        let mut packet = Packet::http(0, fig1_hosts::INTERNET, fig1_hosts::H2);
        packet.dst_port = dst_port;
        let mut out = Vec::new();
        engine.on_packet_in(&PacketInMsg { switch, in_port: 0, packet }, tags, &mut out);
        out
    }

    fn is_flow_mod_at(replies: &[(CtrlMsg, TagSet)], at: i64, for_tags: TagSet) -> bool {
        matches!(replies, [(CtrlMsg::FlowMod { switch, .. }, tags)] if (*switch, *tags) == (at, for_tags))
    }

    #[test]
    fn an_admission_between_two_key_equal_quiet_punts_makes_the_second_step() {
        let (base, setup) = (quiet_program(), setup());
        let deltas = [RuleDelta::default()];
        let tagged = tagged_program(&base, &deltas);
        let index = TriggerIndex::new(&base);
        let dispatch = tagged.dispatch(&index);
        let mut engine = TaggedEngine::new(&tagged, &dispatch, &base.catalog, &setup.codec, setup.engine.max_derivations);
        // No `Cfg`: the join fails, and the second punt is the first's.
        assert!(punt(&mut engine, 7, 80, 1).is_empty());
        assert!(punt(&mut engine, 7, 80, 1).is_empty());
        assert_eq!((engine.steps, engine.quiet.answered()), (1, 1));
        // S3's punt admits `Cfg(80, 2)`: the same punt steps again, and
        // joins it.
        assert!(punt(&mut engine, 3, 80, 1).is_empty());
        let replies = punt(&mut engine, 7, 80, 1);
        assert!(is_flow_mod_at(&replies, 7, 1), "{replies:?}");
        assert_eq!((engine.steps, engine.quiet.answered()), (3, 1));
    }

    #[test]
    fn punts_whose_keys_differ_only_in_tags_or_in_a_read_column_both_step() {
        let (base, setup) = (quiet_program(), setup());
        let deltas = [RuleDelta::default(), RuleDelta::default()];
        let tagged = tagged_program(&base, &deltas);
        let index = TriggerIndex::new(&base);
        let dispatch = tagged.dispatch(&index);
        let mut engine = TaggedEngine::new(&tagged, &dispatch, &base.catalog, &setup.codec, setup.engine.max_derivations);
        let cfg = Tuple::new("Cfg", Value::str("C"), vec![Value::Int(80), Value::Int(2)]);
        engine.step(cfg, 0b11, None);
        // Below S5 `r1`'s prefilter fails; `r0`'s keyed group is S3's alone.
        assert!(punt(&mut engine, 1, 80, 0b01).is_empty());
        assert!(punt(&mut engine, 1, 80, 0b10).is_empty(), "other tags");
        // Above S5 the join decides: no `Cfg` for port 53.
        assert!(punt(&mut engine, 7, 53, 0b01).is_empty(), "another test bit");
        assert_eq!((engine.steps, engine.quiet.answered()), (3, 0));
        // The switch reaches only the head.
        assert!(punt(&mut engine, 9, 53, 0b01).is_empty());
        assert_eq!((engine.steps, engine.quiet.answered()), (3, 1));
        // Port 80 is the punt at S7 but for the read column, and the punt
        // at S1 but for the test bit: it steps, and joins `Cfg(80, 2)`.
        let replies = punt(&mut engine, 7, 80, 0b01);
        assert!(is_flow_mod_at(&replies, 7, 0b01), "{replies:?}");
        assert_eq!((engine.steps, engine.quiet.answered()), (4, 1));
    }

    #[test]
    fn a_step_whose_head_an_assignment_refuses_is_not_filed() {
        let base = parse_program(
            "refused",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0,1)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Prt := 2 / Swi.
            ",
        )
        .unwrap();
        let setup = setup();
        let deltas = [RuleDelta::default()];
        let tagged = tagged_program(&base, &deltas);
        let index = TriggerIndex::new(&base);
        let dispatch = tagged.dispatch(&index);
        let mut engine = TaggedEngine::new(&tagged, &dispatch, &base.catalog, &setup.codec, setup.engine.max_derivations);
        // At switch 0 the match is complete and the assignment refuses the
        // head: the step derives nothing, and is not filed. The switch is
        // off the key — only the assignment and the head read it — so the
        // punt at S1 would have been answered as that step.
        assert!(punt(&mut engine, 0, 80, 1).is_empty());
        let replies = punt(&mut engine, 1, 80, 1);
        assert!(is_flow_mod_at(&replies, 1, 1), "{replies:?}");
        assert_eq!((engine.steps, engine.quiet.answered(), engine.diverged), (2, 0, 0));
    }

    #[test]
    fn a_punt_no_variant_hears_costs_no_step() {
        let base = parse_program(
            "deaf",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0,1)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Prt := 2.
            ",
        )
        .unwrap();
        let setup = setup();
        let deltas = [RuleDelta::default()];
        let tagged = tagged_program(&base, &deltas);
        let index = TriggerIndex::new(&base);
        let dispatch = tagged.dispatch(&index);
        let mut engine = TaggedEngine::new(&tagged, &dispatch, &base.catalog, &setup.codec, setup.engine.max_derivations);
        // `r1` is keyed on switch 1: the group of a punt at switch 2 has no
        // trigger, so every such punt is answered, the first one too.
        for port in [80, 53, 80] {
            assert!(punt(&mut engine, 2, port, 1).is_empty());
        }
        assert_eq!((engine.steps, engine.quiet.answered()), (0, 3));
        let replies = punt(&mut engine, 1, 80, 1);
        assert!(is_flow_mod_at(&replies, 1, 1), "{replies:?}");
        assert_eq!((engine.steps, engine.quiet.answered()), (1, 3));
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
        let by_id_deltas = assert_same_build(&base, &programs);
        let by_id = tagged_program(&base, &by_id_deltas);
        let ids = |tp: &TaggedProgram| -> Vec<String> {
            tp.variants.iter().map(|v| format!("{}:{}", v.rule.id, v.mask)).collect()
        };
        assert_eq!(ids(&by_id), ["r1:1", "r5:1", "r7:1"]);
        let outline = ProgramOutline::new(&base).unwrap();
        let delta = [patch.delta(&base, &outline).unwrap()];
        let from_delta = tagged_program(&base, &delta);
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
        let mut t = TaggedTables { topo: &topo, by_switch: BTreeMap::new(), installs: 0 };
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
        let mut t = TaggedTables { topo: &topo, by_switch: BTreeMap::new(), installs: 0 };
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
        let index = TriggerIndex::new(&base);
        let dispatch = tagged.dispatch(&index);
        let engine = TaggedEngine::new(&tagged, &dispatch, &base.catalog, &setup.codec, setup.engine.max_derivations);
        assert_eq!(engine.diverged, 0b010, "before any step");
        let compiled: Vec<bool> = engine.compiled.iter().map(LazyRule::is_compiled).collect();
        assert_eq!(compiled, [false, false, false, false, true]);
    }

    // -- the shared trigger index ------------------------------------------

    /// The tables generated rules read: a base rule `A`–`C`, a candidate's
    /// rule `D` too, which no base rule reads.
    const TABLES: [&str; 4] = ["A", "B", "C", "D"];

    /// A generated rule: body atoms `T(@Lk,Xk,Yk)` over `TABLES[atoms[k]]`,
    /// selections `(atom, column, op, constant)` over their variables.
    #[derive(Debug, Clone)]
    struct GenRule {
        atoms: Vec<usize>,
        sels: Vec<(usize, usize, CmpOp, Value)>,
    }

    impl GenRule {
        fn src(&self, id: &str) -> String {
            let atoms = self.atoms.iter().enumerate().map(|(k, &t)| format!("{}(@L{k},X{k},Y{k})", TABLES[t]));
            let sels = self.sels.iter().map(|(k, col, op, c)| format!("{}{} {op} {c}", ["L", "X", "Y"][*col], k % self.atoms.len()));
            format!("{id} H(@L0,X0) :- {}.", atoms.chain(sels).collect::<Vec<_>>().join(", "))
        }

        fn rule(&self, id: &str) -> Rule {
            mpr_ndlog::parse_rule(&self.src(id)).unwrap()
        }
    }

    /// A rule over the first `tables` of `TABLES`, mostly keyable `==`
    /// selections on one of three columns.
    fn gen_rule(tables: usize) -> impl Strategy<Value = GenRule> {
        let value = prop::sample::select(vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::str("s")]);
        let op = prop::sample::select(vec![CmpOp::Eq, CmpOp::Eq, CmpOp::Eq, CmpOp::Lt, CmpOp::Ne]);
        let sels = prop::collection::vec((0usize..2, 0usize..3, op, value), 0..4);
        (prop::collection::vec(0..tables, 1..3), sels).prop_map(|(atoms, sels)| GenRule { atoms, sels })
    }

    /// What a candidate does to a base rule.
    #[derive(Debug, Clone)]
    enum Change {
        Delete,
        /// A selection (or a new one) becomes `== v`: the copy's dispatch
        /// constant moves to another group, or to a new one (7).
        Move(usize, Value),
        /// The first atom reads another table, maybe `D`.
        Retable(usize),
        /// Another rule under the same id.
        Fresh(GenRule),
    }

    fn change() -> impl Strategy<Value = Change> {
        let value = prop::sample::select(vec![Value::Int(0), Value::Int(1), Value::Int(7)]);
        prop_oneof![
            2 => Just(Change::Delete),
            3 => (0usize..4, value).prop_map(|(i, v)| Change::Move(i, v)),
            2 => (0usize..4).prop_map(Change::Retable),
            1 => gen_rule(4).prop_map(Change::Fresh),
        ]
    }

    /// Base rules; per candidate the changes to them (positions taken
    /// modulo the base's length) and the rules it adds; a base rule every
    /// candidate deletes.
    type Case = (Vec<GenRule>, Vec<(Vec<(usize, Change)>, Vec<GenRule>)>, Option<usize>);

    fn case() -> impl Strategy<Value = Case> {
        let candidate = (prop::collection::vec((0usize..12, change()), 0..4), prop::collection::vec(gen_rule(4), 0..3));
        (prop::collection::vec(gen_rule(3), 1..12), prop::collection::vec(candidate, 1..5), prop::option::of(0usize..12))
    }

    /// The base program of `case` and its candidates' deltas.
    fn case_input((base, candidates, gone): &Case) -> (Program, Vec<RuleDelta>) {
        let src: Vec<String> = base.iter().enumerate().map(|(i, r)| r.src(&format!("r{i}"))).collect();
        let program = parse_program("gen", &src.join("\n")).unwrap();
        let n = base.len();
        let deltas = candidates.iter().enumerate().map(|(c, (changes, added))| {
            let mut changed: BTreeMap<usize, Option<Rule>> = BTreeMap::new();
            for (pos, change) in changes {
                let (pos, mut r) = (pos % n, base[pos % n].clone());
                match change {
                    Change::Delete => {
                        changed.insert(pos, None);
                        continue;
                    }
                    Change::Move(i, v) => match r.sels.len() {
                        0 => r.sels.push((0, 1, CmpOp::Eq, v.clone())),
                        len => r.sels[i % len] = (r.sels[i % len].0, r.sels[i % len].1, CmpOp::Eq, v.clone()),
                    },
                    Change::Retable(t) => r.atoms[0] = *t,
                    Change::Fresh(other) => r = other.clone(),
                }
                changed.insert(pos, Some(r.rule(&format!("r{pos}"))));
            }
            if let Some(g) = gone {
                changed.insert(g % n, None);
            }
            let added = added.iter().enumerate().map(|(k, r)| r.rule(&format!("n{c}x{k}"))).collect();
            RuleDelta { changed: changed.into_iter().collect(), added }
        });
        (program, deltas.collect())
    }

    proptest! {
        /// The joint replay's dispatch reads the base program's trigger
        /// index for the rules the candidates share with it, and groups
        /// only their copies and added rules, on the index's column. Over
        /// every tuple of every table it visits exactly the triggers, in
        /// exactly the order and in the same groups, that grouping every
        /// variant's triggers on that column visits, and a group reads for
        /// a quiet-step key what that group's variants read. The triggers
        /// whose prefilter passes — those that fire — are, in order, those
        /// that grouping every variant on its own vote fires, whatever
        /// column the vote picks (what the joint replay grouped on before
        /// it shared the index).
        #[test]
        fn the_variants_dispatch_over_the_shared_index_fires_what_grouping_every_variant_fires(c in case()) {
            let (program, deltas) = case_input(&c);
            let index = TriggerIndex::new(&program);
            let tagged = tagged_program(&program, &deltas);
            let derived = tagged.dispatch(&index);
            let variants = &tagged.variants;
            let mut lists: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
            for (vi, v) in variants.iter().enumerate() {
                for (ai, atom) in v.rule.body.iter().enumerate() {
                    lists.entry(&atom.table).or_default().push((vi, ai));
                }
            }
            let (compiled, catalog) = (variants.iter().map(|_| LazyRule::default()).collect::<Vec<_>>(), Catalog::new());
            let rule = |vi: usize| compiled[vi].get(variants[vi].rule, &catalog);
            let values: &[Value] = &[Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(7), Value::str("s")];
            for table in TABLES {
                let got = derived.get(table);
                prop_assert_eq!(got.is_some(), lists.contains_key(table), "{} read", table);
                let (Some(got), Some(list)) = (got, lists.get(table)) else { continue };
                let col = index.get(table).map(TriggerDispatch::col);
                let want = TriggerDispatch::new(list, |vi| variants[vi].rule, col);
                let voted = TriggerDispatch::new(list, |vi| variants[vi].rule, None);
                let (mut reads, mut numbers, mut groups) = (Prehashed::default(), HashMap::new(), HashMap::new());
                for (loc, x, y) in values.iter().flat_map(|l| values.iter().flat_map(move |x| values.iter().map(move |y| (l, x, y)))) {
                    let t = Tuple::new(table, loc.clone(), vec![x.clone(), y.clone()]);
                    let visited: Vec<(usize, usize)> = got.triggers_for(&t).collect();
                    prop_assert_eq!(&visited, &want.triggers_for(&t).collect::<Vec<_>>(), "{}", t);
                    let fires = |&(vi, ai): &(usize, usize)| rule(vi).is_some_and(|r| r.accepts(ai, &t));
                    let fired: Vec<(usize, usize)> = visited.into_iter().filter(fires).collect();
                    let by_vote: Vec<(usize, usize)> = voted.triggers_for(&t).filter(fires).collect();
                    prop_assert_eq!(fired, by_vote, "{} fires", t);
                    let group = want.group_of(&t);
                    let view = got.quiet_view(&t, &mut reads, rule);
                    prop_assert_eq!(view.is_some(), want.triggers_in(group).next().is_some(), "{} heard", t);
                    if let Some((number, group_reads)) = view {
                        prop_assert_eq!(group_reads, want.reads(group, rule), "{} reads", t);
                        prop_assert_eq!(*numbers.entry(group).or_insert(number), number, "{}: one number per group", t);
                        prop_assert_eq!(*groups.entry(number).or_insert(group), group, "{}: one group per number", t);
                    }
                }
            }
        }
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
