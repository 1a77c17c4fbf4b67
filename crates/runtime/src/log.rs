//! The execution log — the engine's record of *everything that happened*.
//!
//! The paper's runtime "records relevant control-plane messages and packets
//! to a log, which can be used to answer diagnostic queries later" (§5.1),
//! at 120 bytes per entry (§5.4). Our log is finer-grained — every base
//! insertion/deletion, derivation, appearance and cross-node message is an
//! event, every continuous existence interval of a tuple an instance — so
//! it only stays cheap if an entry is tens of bytes. The layout is
//! therefore *interned, columnar and indexed by head*:
//!
//! - each distinct [`Tuple`] and each distinct node [`Value`] is stored
//!   once in a hash-consing table and named by a dense `u32`; a rule is
//!   its index in the program, whose ids the log reads through the
//!   program the engine shares ([`ExecLog::for_program`]) and never copies;
//! - an instance is an 8-byte row (tuple ref, kind, liveness) that the
//!   engine itself reads, plus — only while recording — a 24-byte lifetime
//!   row (appear, disappear, two chain links);
//! - an event is one fixed 32-byte row; `Derive`/`Underive` bodies are
//!   ranges into one flat arena of [`TupleId`]s, and an `Underive` is a
//!   copy of the `Derive` row it retracts, body range and shipment
//!   included;
//! - a row stores nothing other rows imply: an inserted event is one row
//!   that reads as its `InsertBase`, `Appear` and `Disappear`, a derived
//!   event's `Derive` row reads as the derivation, its `Appear` and its
//!   `Disappear`, and a `Derive`/`Underive` whose firing ran on another
//!   node than its head's holds that node's ref and reads as itself, then
//!   its `Send` and `Receive` (the receiving node is the head's own
//!   location);
//! - every `Derive` row links to the previous derivation of the same head,
//!   and every instance to the previous instance of the same tuple, so
//!   [`ExecLog::derivations_of`], [`ExecLog::shipment_of`],
//!   [`ExecLog::instances_of`] and [`ExecLog::instance_alive_at`] read a
//!   number of rows proportional to their answer, not to the log.
//!
//! Readers see none of this: [`ExecLog::record`] and [`ExecLog::events`]
//! hand out borrowed [`TupleRecord`] / [`ExecEvent`] views, one row
//! expanding in place into the events it stands for. Refs are
//! assigned in first-seen order, so two logs of the same execution are
//! equal column by column and `ExecLog: Eq` still means "the same history,
//! event for event". With [`crate::Options::record_events`] off only the
//! 8-byte instance rows and the tuple table are kept — what the engine
//! needs to retract and replace — and [`ExecLog::records`] /
//! [`ExecLog::events`] are empty.

use mpr_ndlog::{Program, Tuple, Value};
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash};
use std::mem::size_of;
use std::sync::Arc;

/// Logical timestamp (one tick per processed delta).
pub type Time = u64;

/// Identifier of one continuous existence interval of a tuple.
pub type TupleId = u64;

/// "No row" in a `u32` link or ref column.
const NONE: u32 = u32::MAX;
/// `disappear` of an instance that is still alive.
const NEVER: Time = Time::MAX;

/// How a tuple came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleKind {
    /// Inserted from outside (base tuple, §2.1).
    Base,
    /// Derived by a rule.
    Derived,
    /// A transient event tuple (event-table insert); exists for one instant.
    Event,
}

/// Lifetime record of one tuple instance, borrowed from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleRecord<'a> {
    /// Id of the instance.
    pub tid: TupleId,
    /// The tuple.
    pub tuple: &'a Tuple,
    /// When it appeared.
    pub appear: Time,
    /// When it disappeared (`None` while still alive / for the final state).
    pub disappear: Option<Time>,
    /// Base / derived / event.
    pub kind: TupleKind,
}

impl TupleRecord<'_> {
    /// `true` if the tuple existed at time `t` (events exist only at their
    /// own instant).
    pub fn alive_at(&self, t: Time) -> bool {
        self.appear <= t && self.disappear.map_or(true, |d| t < d || self.appear == t)
    }
}

/// One logged event, borrowed from the log. Node values are the `@`
/// locations involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEvent<'a> {
    /// A base tuple was inserted (INSERT vertex, §3.1).
    InsertBase {
        /// Timestamp.
        time: Time,
        /// Inserted tuple instance.
        tid: TupleId,
    },
    /// A base tuple was deleted (DELETE).
    DeleteBase {
        /// Timestamp.
        time: Time,
        /// Deleted tuple instance.
        tid: TupleId,
    },
    /// A rule fired and derived `head` from `body` (DERIVE).
    Derive {
        /// Timestamp.
        time: Time,
        /// Rule id in the program.
        rule: &'a str,
        /// Derived head tuple instance.
        head: TupleId,
        /// Body tuple instances, in body-atom order.
        body: &'a [TupleId],
    },
    /// A derivation lost support (UNDERIVE).
    Underive {
        /// Timestamp.
        time: Time,
        /// Rule id.
        rule: &'a str,
        /// Head tuple instance.
        head: TupleId,
        /// Body tuple instances.
        body: &'a [TupleId],
    },
    /// A tuple appeared in the database (APPEAR).
    Appear {
        /// Timestamp.
        time: Time,
        /// Appearing tuple instance.
        tid: TupleId,
    },
    /// A tuple disappeared (DISAPPEAR).
    Disappear {
        /// Timestamp.
        time: Time,
        /// Disappearing tuple instance.
        tid: TupleId,
    },
    /// `±tuple` was shipped to a remote head location (SEND).
    Send {
        /// Timestamp.
        time: Time,
        /// Sending node.
        from: &'a Value,
        /// Receiving node.
        to: &'a Value,
        /// Tuple instance being shipped.
        tid: TupleId,
        /// `+τ` (true) or `-τ` (false).
        positive: bool,
    },
    /// The matching reception (RECEIVE).
    Receive {
        /// Timestamp.
        time: Time,
        /// Sending node.
        from: &'a Value,
        /// Receiving node.
        to: &'a Value,
        /// Tuple instance being shipped.
        tid: TupleId,
        /// `+τ` (true) or `-τ` (false).
        positive: bool,
    },
}

impl ExecEvent<'_> {
    /// Timestamp of the event.
    pub fn time(&self) -> Time {
        match self {
            ExecEvent::InsertBase { time, .. }
            | ExecEvent::DeleteBase { time, .. }
            | ExecEvent::Derive { time, .. }
            | ExecEvent::Underive { time, .. }
            | ExecEvent::Appear { time, .. }
            | ExecEvent::Disappear { time, .. }
            | ExecEvent::Send { time, .. }
            | ExecEvent::Receive { time, .. } => *time,
        }
    }
}

// ---------------------------------------------------------------------------
// hash-consing

/// A hash-consing table: every distinct value is stored once and named by
/// its position, assigned in first-seen order.
///
/// Equality is the item type's own `Eq` — derived, value-exact equality for
/// [`Tuple`] and [`Value`], so `Int(1)`, `Str("1")` and `Wild` never share a
/// ref — which is what makes replacing a stored clone by a ref lossless.
#[derive(Debug, Clone)]
struct Interner<T> {
    items: Vec<T>,
    /// Open-addressing index into `items` (`NONE` = free), under half full.
    /// Derived from `items` and the table's own hash keys (tuples carry
    /// packet fields, so the keys are random per table, as a `HashMap`'s
    /// are): equality ignores both.
    slots: Vec<u32>,
    keys: std::collections::hash_map::RandomState,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner { items: Vec::new(), slots: Vec::new(), keys: Default::default() }
    }
}

impl<T: PartialEq> PartialEq for Interner<T> {
    fn eq(&self, other: &Self) -> bool {
        self.items == other.items
    }
}

impl<T: Eq> Eq for Interner<T> {}

impl<T: Hash + Eq + Clone> Interner<T> {
    fn hash(&self, key: &T) -> u64 {
        self.keys.hash_one(key)
    }

    /// The ref of `key`, whose [`Self::hash`] is `hash`, or the free slot
    /// its ref would go in.
    fn probe(&self, key: &T, hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                NONE => return Err(i),
                r if self.items[r as usize] == *key => return Ok(r),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn get(&self, key: &T) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(key, self.hash(key)).ok()
    }

    /// The ref of `key`, cloning it into the table only when it is new.
    fn intern(&mut self, key: &T) -> u32 {
        self.intern_hashed(key, self.hash(key))
    }

    /// [`Self::intern`] for a `key` whose [`Self::hash`] is `hash`.
    fn intern_hashed(&mut self, key: &T, hash: u64) -> u32 {
        if (self.items.len() + 1) * 2 > self.slots.len() {
            self.slots = vec![NONE; (self.slots.len() * 2).max(16)];
            for r in 0..self.items.len() {
                let free = self.probe(&self.items[r], self.hash(&self.items[r])).expect_err("items are distinct");
                self.slots[free] = r as u32;
            }
        }
        self.probe(key, hash).unwrap_or_else(|free| {
            let r = row_index(self.items.len());
            self.slots[free] = r;
            self.items.push(key.clone());
            r
        })
    }
}

// ---------------------------------------------------------------------------
// rows

/// What the engine itself reads of an instance; kept with recording off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Inst {
    tuple: u32,
    kind: TupleKind,
    live: bool,
}

/// The history of an instance; kept only while recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    appear: Time,
    disappear: Time,
    /// Previous instance of the same tuple.
    prev_same: u32,
    /// Latest `Derive` row whose head is this instance.
    last_derive: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// An inserted event: `InsertBase`, `Appear`, `Disappear`.
    InsertEvent,
    InsertBase,
    DeleteBase,
    Derive,
    /// A derived event: `Derive`, its shipment, `Appear`, `Disappear`.
    DeriveEvent,
    Underive,
    Appear,
    Disappear,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventRow {
    time: Time,
    /// The instance the event is about (the head of a derivation).
    tid: u32,
    /// Derivation rows: rule ref.
    rule: u32,
    /// Derivation rows: body start in `bodies`.
    body: u32,
    /// `Derive`/`DeriveEvent`: the previous such row with the same head.
    prev: u32,
    /// Derivation rows: the node ref the head was shipped from, or `NONE`
    /// when the firing ran at the head's own node.
    from: u32,
    /// Derivation rows: body length.
    len: u16,
    tag: Tag,
}

impl EventRow {
    /// How many events the row reads as (module docs).
    fn views(&self) -> u8 {
        let shipment = if self.from == NONE { 0 } else { 2 };
        match self.tag {
            Tag::InsertEvent => 3,
            Tag::Derive | Tag::Underive => 1 + shipment,
            Tag::DeriveEvent => 3 + shipment,
            Tag::InsertBase | Tag::DeleteBase | Tag::Appear | Tag::Disappear => 1,
        }
    }
}

const _: () = assert!(size_of::<Inst>() == 8 && size_of::<Span>() == 24 && size_of::<EventRow>() == 32);

fn row_index(n: usize) -> u32 {
    u32::try_from(n).ok().filter(|&i| i != NONE).expect("fewer than 2^32 log rows")
}

#[cfg(debug_assertions)]
thread_local! {
    static ROWS_VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Lifetime and event rows the reading accessors have fetched on this
/// thread — the work counter behind the "proportional to the answer" tests.
/// Debug builds only; release builds compile the counter out.
#[cfg(debug_assertions)]
pub fn rows_visited() -> u64 {
    ROWS_VISITED.with(std::cell::Cell::get)
}

#[inline]
fn visit() {
    #[cfg(debug_assertions)]
    ROWS_VISITED.with(|c| c.set(c.get() + 1));
}

/// The full execution log. See the module docs for the layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecLog {
    tuples: Interner<Tuple>,
    /// Per distinct tuple: its newest instance (maintained while recording).
    newest: Vec<u32>,
    nodes: Interner<Value>,
    /// The program whose rule indexes the rows name, shared with the
    /// engine: its rule ids are read through it, never copied.
    program: Option<Arc<Program>>,
    insts: Vec<Inst>,
    spans: Vec<Span>,
    events: Vec<EventRow>,
    /// Events the rows read as: [`ExecLog::len`].
    views: usize,
    bodies: Vec<TupleId>,
}

impl ExecLog {
    /// An empty log for `program`, whose rules its rows name by index.
    pub fn for_program(program: Arc<Program>) -> Self {
        ExecLog { program: Some(program), ..ExecLog::default() }
    }

    // -- writing (the engine) ------------------------------------------------

    /// The hash [`ExecLog::intern`] files `tuple` under.
    pub(crate) fn hash_tuple(&self, tuple: &Tuple) -> u64 {
        self.tuples.hash(tuple)
    }

    /// The ref of `tuple`, whose [`ExecLog::hash_tuple`] is `hash`, in the
    /// log's tuple table, and whether the table held it already.
    pub(crate) fn intern(&mut self, tuple: &Tuple, hash: u64) -> (u32, bool) {
        let before = self.tuples.items.len();
        let tref = self.tuples.intern_hashed(tuple, hash);
        (tref, (tref as usize) < before)
    }

    /// The tuple ref of instance `tid`.
    pub(crate) fn tuple_ref(&self, tid: TupleId) -> u32 {
        self.insts[tid as usize].tuple
    }

    /// Register a new instance of `tuple`; its [`TupleId`] is its row.
    pub(crate) fn mint(&mut self, tuple: &Tuple, kind: TupleKind, now: Time, record: bool) -> TupleId {
        let tref = self.tuples.intern(tuple);
        self.mint_interned(tref, kind, now, record)
    }

    /// [`ExecLog::mint`] for a tuple already interned under `tref`.
    pub(crate) fn mint_interned(&mut self, tref: u32, kind: TupleKind, now: Time, record: bool) -> TupleId {
        let tid = row_index(self.insts.len());
        self.insts.push(Inst { tuple: tref, kind, live: true });
        if record {
            if self.newest.len() < self.tuples.items.len() {
                self.newest.resize(self.tuples.items.len(), NONE);
            }
            let prev_same = std::mem::replace(&mut self.newest[tref as usize], tid);
            self.spans.push(Span { appear: now, disappear: NEVER, prev_same, last_derive: NONE });
        }
        TupleId::from(tid)
    }

    /// End the lifetime of `tid`.
    pub(crate) fn close(&mut self, tid: TupleId, now: Time) {
        self.insts[tid as usize].live = false;
        if let Some(span) = self.spans.get_mut(tid as usize) {
            span.disappear = now;
        }
    }

    fn push_row(&mut self, row: EventRow) -> u32 {
        let i = row_index(self.events.len());
        self.views += usize::from(row.views());
        self.events.push(row);
        i
    }

    fn push_simple(&mut self, tag: Tag, time: Time, tid: TupleId) {
        self.push_row(EventRow { time, tid: tid as u32, rule: NONE, body: NONE, prev: NONE, from: NONE, len: 0, tag });
    }

    /// The event instance `tid` was inserted: its `InsertBase`, `Appear`
    /// and `Disappear`, in one row.
    pub(crate) fn insert_event(&mut self, time: Time, tid: TupleId) {
        self.push_simple(Tag::InsertEvent, time, tid);
    }

    pub(crate) fn insert_base(&mut self, time: Time, tid: TupleId) {
        self.push_simple(Tag::InsertBase, time, tid);
    }

    pub(crate) fn delete_base(&mut self, time: Time, tid: TupleId) {
        self.push_simple(Tag::DeleteBase, time, tid);
    }

    pub(crate) fn appear(&mut self, time: Time, tid: TupleId) {
        self.push_simple(Tag::Appear, time, tid);
    }

    pub(crate) fn disappear(&mut self, time: Time, tid: TupleId) {
        self.push_simple(Tag::Disappear, time, tid);
    }

    /// The ref of the node a firing of the delta `origin` shipped `head`
    /// from — the delta's — or `NONE` when it ran at the head's own node.
    fn shipped_from(&mut self, head: TupleId, origin: TupleId) -> u32 {
        let loc = |i: TupleId| &self.tuples.items[self.insts[i as usize].tuple as usize].loc;
        if loc(origin) == loc(head) {
            NONE
        } else {
            self.nodes.intern(loc(origin))
        }
    }

    fn push_derive(&mut self, tag: Tag, time: Time, rule: usize, head: TupleId, body: &[TupleId], origin: TupleId) -> u32 {
        let from = self.shipped_from(head, origin);
        let span = &mut self.spans[head as usize];
        let row = EventRow {
            time,
            tid: head as u32,
            rule: row_index(rule),
            body: row_index(self.bodies.len()),
            prev: span.last_derive,
            from,
            len: u16::try_from(body.len()).expect("a rule body has fewer than 2^16 atoms"),
            tag,
        };
        span.last_derive = row_index(self.events.len());
        self.bodies.extend_from_slice(body);
        self.push_row(row)
    }

    /// Rule `rule` derived `head` from `body` in a firing of the delta
    /// `origin`, at its node: a `Derive` row, which for a head that lives
    /// on another node reads as its `Send` and `Receive` too. Returns the
    /// row's index, the handle [`ExecLog::underive`] takes.
    pub(crate) fn derive(&mut self, time: Time, rule: usize, head: TupleId, body: &[TupleId], origin: TupleId) -> u32 {
        self.push_derive(Tag::Derive, time, rule, head, body, origin)
    }

    /// [`ExecLog::derive`] of the event instance `head`, whose row reads as
    /// its `Appear` and `Disappear` too.
    pub(crate) fn derive_event(&mut self, time: Time, rule: usize, head: TupleId, body: &[TupleId], origin: TupleId) {
        self.push_derive(Tag::DeriveEvent, time, rule, head, body, origin);
    }

    /// The derivation logged at row `derive` lost support: an `Underive`
    /// row over the same rule, head, body and shipment, which a shipped
    /// derivation's reads as its negative `Send` and `Receive` too.
    pub(crate) fn underive(&mut self, time: Time, derive: u32) {
        let d = self.events[derive as usize];
        debug_assert_eq!(d.tag, Tag::Derive);
        self.push_row(EventRow { time, prev: NONE, tag: Tag::Underive, ..d });
    }

    // -- reading -------------------------------------------------------------

    /// The tuple of instance `tid` (kept with recording off too).
    pub fn tuple(&self, tid: TupleId) -> &Tuple {
        &self.tuples.items[self.insts[tid as usize].tuple as usize]
    }

    /// Base / derived / event (kept with recording off too).
    pub fn kind(&self, tid: TupleId) -> TupleKind {
        self.insts[tid as usize].kind
    }

    /// `true` until the instance disappears (kept with recording off too).
    pub(crate) fn is_live(&self, tid: TupleId) -> bool {
        self.insts[tid as usize].live
    }

    /// Distinct tuples that have a live non-event instance, ordered by that
    /// instance — the state the log ends in.
    pub fn live_state(&self) -> Vec<&Tuple> {
        let mut seen = vec![false; self.tuples.items.len()];
        self.insts
            .iter()
            .filter(|i| i.live && i.kind != TupleKind::Event)
            .filter(|i| !std::mem::replace(&mut seen[i.tuple as usize], true))
            .map(|i| &self.tuples.items[i.tuple as usize])
            .collect()
    }

    fn span(&self, tid: u32) -> &Span {
        visit();
        &self.spans[tid as usize]
    }

    fn row(&self, i: u32) -> &EventRow {
        visit();
        &self.events[i as usize]
    }

    /// Lifetime record for a tuple instance.
    ///
    /// # Panics
    /// If `tid` was never minted, or the log was written with recording off.
    pub fn record(&self, tid: TupleId) -> TupleRecord<'_> {
        let span = self.span(tid as u32);
        TupleRecord {
            tid,
            tuple: self.tuple(tid),
            appear: span.appear,
            disappear: (span.disappear != NEVER).then_some(span.disappear),
            kind: self.kind(tid),
        }
    }

    /// Every lifetime record, in [`TupleId`] order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = TupleRecord<'_>> + '_ {
        (0..self.spans.len()).map(move |tid| self.record(tid as TupleId))
    }

    /// The `part`-th of the events row `r` reads as (module docs).
    fn view(&self, r: &EventRow, part: u8) -> ExecEvent<'_> {
        let (time, tid) = (r.time, TupleId::from(r.tid));
        let rule = || self.program.as_ref().expect("a log of derivations names its program").rules[r.rule as usize].id.as_str();
        let body = || &self.bodies[r.body as usize..r.body as usize + usize::from(r.len)];
        let from = || &self.nodes.items[r.from as usize];
        let to = || &self.tuple(tid).loc;
        let positive = r.tag != Tag::Underive;
        // A derivation row's parts: itself, its shipment if it was
        // shipped, then a derived event's appearance and disappearance.
        let part = match r.tag {
            Tag::Derive | Tag::DeriveEvent | Tag::Underive if r.from == NONE && part > 0 => part + 2,
            _ => part,
        };
        match (r.tag, part) {
            (Tag::InsertEvent, 0) | (Tag::InsertBase, _) => ExecEvent::InsertBase { time, tid },
            (Tag::DeleteBase, _) => ExecEvent::DeleteBase { time, tid },
            (Tag::InsertEvent, 1) | (Tag::DeriveEvent, 3) | (Tag::Appear, _) => ExecEvent::Appear { time, tid },
            (Tag::InsertEvent, _) | (Tag::DeriveEvent, 4) | (Tag::Disappear, _) => ExecEvent::Disappear { time, tid },
            (Tag::Underive, 0) => ExecEvent::Underive { time, rule: rule(), head: tid, body: body() },
            (_, 0) => ExecEvent::Derive { time, rule: rule(), head: tid, body: body() },
            (_, 1) => ExecEvent::Send { time, from: from(), to: to(), tid, positive },
            _ => ExecEvent::Receive { time, from: from(), to: to(), tid, positive },
        }
    }

    /// The `Derive` event of derivation row `i`.
    fn event(&self, i: u32) -> ExecEvent<'_> {
        self.view(self.row(i), 0)
    }

    /// Events in chronological order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = ExecEvent<'_>> + '_ {
        Events { log: self, row: 0, part: 0, left: self.views }
    }

    /// Rows of the `Derive` chain of `tid`, newest first.
    fn derive_chain(&self, tid: TupleId) -> impl Iterator<Item = u32> + '_ {
        let first = self.span(tid as u32).last_derive;
        std::iter::successors((first != NONE).then_some(first), |&i| {
            let prev = self.row(i).prev;
            (prev != NONE).then_some(prev)
        })
    }

    /// All derivations whose head instance is `tid`, oldest first.
    pub fn derivations_of(&self, tid: TupleId) -> Vec<ExecEvent<'_>> {
        let mut out: Vec<ExecEvent<'_>> = self.derive_chain(tid).map(|i| self.event(i)).collect();
        out.reverse();
        out
    }

    /// The first time instance `tid` was shipped to its node: the time and
    /// the `from` / `to` of its earliest positive `Send`.
    pub fn shipment_of(&self, tid: TupleId) -> Option<(Time, &Value, &Value)> {
        self.derive_chain(tid)
            .map(|i| &self.events[i as usize])
            .filter(|d| d.from != NONE)
            .last()
            .map(|d| (d.time, &self.nodes.items[d.from as usize], &self.tuple(tid).loc))
    }

    /// Instances of exactly `tuple`, newest first.
    fn instance_chain(&self, tuple: &Tuple) -> impl Iterator<Item = TupleRecord<'_>> + '_ {
        let first = self
            .tuples
            .get(tuple)
            .and_then(|r| self.newest.get(r as usize).copied())
            .unwrap_or(NONE);
        std::iter::successors((first != NONE).then_some(first), |&tid| {
            let prev = self.spans[tid as usize].prev_same;
            (prev != NONE).then_some(prev)
        })
        .map(|tid| self.record(TupleId::from(tid)))
    }

    /// Find instances matching an exact tuple (any lifetime), in
    /// [`TupleId`] order.
    pub fn instances_of(&self, tuple: &Tuple) -> Vec<TupleRecord<'_>> {
        let mut out: Vec<TupleRecord<'_>> = self.instance_chain(tuple).collect();
        out.reverse();
        out
    }

    /// The first instance of exactly `tuple` alive at time `t`.
    pub fn instance_alive_at(&self, tuple: &Tuple, t: Time) -> Option<TupleRecord<'_>> {
        // Instances of one tuple never overlap (a state tuple is minted
        // again only once its previous instance is gone; an event instance
        // lasts one instant), so below the newest instance that appeared
        // before `t` none can be alive at `t`.
        let mut first = None;
        for r in self.instance_chain(tuple) {
            if r.alive_at(t) {
                first = Some(r);
            }
            if r.appear < t {
                break;
            }
        }
        first
    }

    /// All tuple instances of `table` alive at time `t`.
    pub fn alive_at(&self, table: &str, t: Time) -> Vec<TupleRecord<'_>> {
        self.records().filter(|r| r.alive_at(t) && &*r.tuple.table == table).collect()
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.views
    }

    /// `true` when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Bytes the history occupies at its encoded row sizes: what writing
    /// out the rows held, without allocator slack, would take — a string
    /// at its length in every row that holds it. The rule ids are the
    /// program's and count here as they do in [`Self::heap_bytes`]: not at
    /// all. The §5.4 storage experiment reports this next to the paper's
    /// 120-byte entries.
    pub fn storage_bytes(&self) -> u64 {
        self.bytes(false)
    }

    /// Heap bytes the log holds, exactly: every column and intern table at
    /// its capacity, plus what the interned tuples and values own.
    /// A shared string is one allocation, its length plus the `Arc`'s two
    /// counts, counted once however many tuples hold it.
    pub fn heap_bytes(&self) -> u64 {
        self.bytes(true)
            + ((self.tuples.slots.capacity() + self.nodes.slots.capacity()) * size_of::<u32>()) as u64
    }

    /// Column and intern-table bytes, at capacity (`slack`) or at length.
    /// At capacity a shared string counts once, with its `Arc` header; at
    /// length it counts at every holder.
    fn bytes(&self, slack: bool) -> u64 {
        fn rows<T>(v: &Vec<T>, slack: bool) -> usize {
            (if slack { v.capacity() } else { v.len() }) * size_of::<T>()
        }
        let mut counted = HashSet::new();
        let mut shared = |s: &Arc<str>| match slack {
            false => s.len(),
            true if counted.insert(Arc::as_ptr(s).cast::<u8>()) => 2 * size_of::<usize>() + s.len(),
            true => 0,
        };
        let mut owned = 0;
        for t in &self.tuples.items {
            owned += shared(&t.table) + rows(&t.args, slack);
        }
        let values = self.tuples.items.iter().flat_map(|t| std::iter::once(&t.loc).chain(&t.args));
        for v in values.chain(&self.nodes.items) {
            if let Value::Str(s) = v {
                owned += shared(s);
            }
        }
        let total = rows(&self.tuples.items, slack)
            + owned
            + rows(&self.newest, slack)
            + rows(&self.nodes.items, slack)
            + rows(&self.insts, slack)
            + rows(&self.spans, slack)
            + rows(&self.events, slack)
            + rows(&self.bodies, slack);
        total as u64
    }
}

/// [`ExecLog::events`]: each row's views, row by row.
struct Events<'a> {
    log: &'a ExecLog,
    row: usize,
    /// The next of the current row's views.
    part: u8,
    left: usize,
}

impl<'a> Iterator for Events<'a> {
    type Item = ExecEvent<'a>;

    fn next(&mut self) -> Option<ExecEvent<'a>> {
        let r = self.log.events.get(self.row)?;
        if self.part == 0 {
            visit();
        }
        let event = self.log.view(r, self.part);
        self.part += 1;
        if self.part == r.views() {
            (self.row, self.part) = (self.row + 1, 0);
        }
        self.left -= 1;
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Events<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: i64) -> Tuple {
        Tuple::new("T", 1i64, vec![Value::Int(i)])
    }

    /// An empty log for a program whose rules have these ids, in order.
    fn for_rules(ids: &[&str]) -> ExecLog {
        let src: String = ids.iter().map(|id| format!("{id} T(@N,X) :- T(@N,X).\n")).collect();
        ExecLog::for_program(Arc::new(mpr_ndlog::parse_program("p", &src).unwrap()))
    }

    #[test]
    fn alive_at_intervals() {
        let tuple = t(0);
        let rec = |appear, disappear| TupleRecord { tid: 0, tuple: &tuple, appear, disappear, kind: TupleKind::Base };
        let r = rec(5, Some(9));
        assert!(!r.alive_at(4));
        assert!(r.alive_at(5));
        assert!(r.alive_at(8));
        assert!(!r.alive_at(9));
        assert!(rec(5, None).alive_at(1_000_000));
        // instantaneous event: alive exactly at its instant
        let r = rec(7, Some(7));
        assert!(r.alive_at(7));
        assert!(!r.alive_at(8));
    }

    /// T(0) from time 1 on; T(1) derived over [2, 5) by `r1`, once from
    /// T(0) at its own node and once shipped from node `C`, where its delta
    /// `L(0)` lives from time 3 on (with no rows of its own); then T(1)
    /// again from 6 on.
    fn small_log() -> ExecLog {
        let mut log = for_rules(&["r0", "r1"]);
        let a = log.mint(&t(0), TupleKind::Base, 1, true);
        log.insert_base(1, a);
        log.appear(1, a);
        let b = log.mint(&t(1), TupleKind::Derived, 2, true);
        let local = log.derive(2, 1, b, &[a], a);
        log.appear(2, b);
        let far = log.mint(&Tuple::new("L", "C", vec![Value::Int(0)]), TupleKind::Base, 3, true);
        let shipped = log.derive(3, 1, b, &[a, far], far);
        log.underive(5, local);
        log.underive(5, shipped);
        log.close(b, 5);
        log.disappear(5, b);
        let b2 = log.mint(&t(1), TupleKind::Derived, 6, true);
        log.derive(6, 0, b2, &[a], a);
        assert_eq!((a, b, far, b2), (0, 1, 2, 3));
        log
    }

    #[test]
    fn views_decode_what_was_written() {
        let log = small_log();
        let (c, n1) = (Value::str("C"), Value::Int(1));
        let want = vec![
            ExecEvent::InsertBase { time: 1, tid: 0 },
            ExecEvent::Appear { time: 1, tid: 0 },
            ExecEvent::Derive { time: 2, rule: "r1", head: 1, body: &[0] },
            ExecEvent::Appear { time: 2, tid: 1 },
            ExecEvent::Derive { time: 3, rule: "r1", head: 1, body: &[0, 2] },
            ExecEvent::Send { time: 3, from: &c, to: &n1, tid: 1, positive: true },
            ExecEvent::Receive { time: 3, from: &c, to: &n1, tid: 1, positive: true },
            ExecEvent::Underive { time: 5, rule: "r1", head: 1, body: &[0] },
            ExecEvent::Underive { time: 5, rule: "r1", head: 1, body: &[0, 2] },
            ExecEvent::Send { time: 5, from: &c, to: &n1, tid: 1, positive: false },
            ExecEvent::Receive { time: 5, from: &c, to: &n1, tid: 1, positive: false },
            ExecEvent::Disappear { time: 5, tid: 1 },
            ExecEvent::Derive { time: 6, rule: "r0", head: 3, body: &[0] },
        ];
        assert_eq!(log.events().collect::<Vec<_>>(), want);
        assert_eq!(log.len(), want.len());
        assert!(!log.is_empty());
        // The shipped `Derive` and its `Underive` each read as three
        // events: 13 views of 9 rows.
        assert_eq!(log.events.len(), 9);
        // An `Underive` shares its `Derive`'s body range: 1 + 2 + 1 ids.
        assert_eq!(log.bodies.len(), 4);

        let rec = log.record(1);
        assert_eq!((rec.tid, rec.tuple, rec.appear, rec.disappear, rec.kind), (1, &t(1), 2, Some(5), TupleKind::Derived));
        assert_eq!(log.records().len(), 4);
        assert_eq!(log.record(3).disappear, None);
        assert!(log.is_live(0) && !log.is_live(1) && log.is_live(2) && log.is_live(3));
        assert_eq!(log.live_state(), vec![&t(0), &Tuple::new("L", "C", vec![Value::Int(0)]), &t(1)]);
    }

    /// An inserted event at node 1, then two events derived from it: one
    /// at node 1, one shipped to node `C`.
    fn event_log() -> ExecLog {
        let mut log = for_rules(&["e"]);
        let ev = |n: Value| Tuple::new("E", n, vec![Value::Int(0)]);
        let a = log.mint(&ev(Value::Int(1)), TupleKind::Event, 1, true);
        log.insert_event(1, a);
        log.close(a, 1);
        for node in [Value::Int(1), Value::str("C")] {
            let d = log.mint(&ev(node), TupleKind::Event, 1, true);
            log.derive_event(1, 0, d, &[a], a);
            log.close(d, 1);
        }
        log
    }

    #[test]
    fn event_rows_read_as_their_whole_instant() {
        let log = event_log();
        let (n1, c) = (Value::Int(1), Value::str("C"));
        let want = vec![
            ExecEvent::InsertBase { time: 1, tid: 0 },
            ExecEvent::Appear { time: 1, tid: 0 },
            ExecEvent::Disappear { time: 1, tid: 0 },
            ExecEvent::Derive { time: 1, rule: "e", head: 1, body: &[0] },
            ExecEvent::Appear { time: 1, tid: 1 },
            ExecEvent::Disappear { time: 1, tid: 1 },
            ExecEvent::Derive { time: 1, rule: "e", head: 2, body: &[0] },
            ExecEvent::Send { time: 1, from: &n1, to: &c, tid: 2, positive: true },
            ExecEvent::Receive { time: 1, from: &n1, to: &c, tid: 2, positive: true },
            ExecEvent::Appear { time: 1, tid: 2 },
            ExecEvent::Disappear { time: 1, tid: 2 },
        ];
        assert_eq!(log.events().collect::<Vec<_>>(), want);
        assert_eq!(log.events.len(), 3, "one row per event instance");
        assert_eq!(log.derivations_of(2), [want[6]]);
        assert_eq!(log.shipment_of(2), Some((1, &n1, &c)));
        assert_eq!(log.shipment_of(1), None);
        for tid in 0..3 {
            assert_eq!(log.record(tid).disappear, Some(1));
        }
    }

    /// `len` counts views, and `events` knows how many are left at every
    /// step.
    #[test]
    fn event_count_is_exact_at_every_prefix() {
        for log in [small_log(), event_log(), ExecLog::default()] {
            assert_eq!(log.len(), log.events().count());
            let mut it = log.events();
            for left in (0..=log.len()).rev() {
                assert_eq!((it.len(), it.size_hint()), (left, (left, Some(left))));
                assert_eq!(it.next().is_some(), left > 0);
            }
        }
    }

    #[test]
    fn event_times() {
        let (from, to) = (Value::str("C"), Value::Int(3));
        let e = ExecEvent::Send { time: 9, from: &from, to: &to, tid: 0, positive: true };
        assert_eq!(e.time(), 9);
        assert!(small_log().events().map(|e| e.time()).eq([1, 1, 2, 2, 3, 3, 3, 5, 5, 5, 5, 5, 6]));
    }

    /// The chain-walking queries answer like a scan of the whole log.
    #[test]
    fn log_queries() {
        let log = small_log();
        for tid in 0..4 {
            let scan: Vec<_> = log
                .events()
                .filter(|e| matches!(e, ExecEvent::Derive { head, .. } if *head == tid))
                .collect();
            assert_eq!(log.derivations_of(tid), scan, "tid {tid}");
        }
        assert_eq!(log.derivations_of(1).len(), 2);
        assert_eq!(log.shipment_of(1), Some((3, &Value::str("C"), &Value::Int(1))));
        assert_eq!(log.shipment_of(3), None);

        let tids = |v: Vec<TupleRecord<'_>>| v.iter().map(|r| r.tid).collect::<Vec<_>>();
        assert_eq!(tids(log.instances_of(&t(1))), [1, 3]);
        assert_eq!(tids(log.instances_of(&t(9))), [] as [TupleId; 0]);
        assert_eq!(tids(log.alive_at("T", 3)), [0, 1]);
        assert_eq!(tids(log.alive_at("T", 5)), [0]);
        assert_eq!(tids(log.alive_at("U", 3)), [] as [TupleId; 0]);
        for (at, want) in [(1, None), (2, Some(1)), (4, Some(1)), (5, None), (6, Some(3)), (99, Some(3))] {
            assert_eq!(log.instance_alive_at(&t(1), at).map(|r| r.tid), want, "at {at}");
        }
    }

    #[test]
    fn interning_is_value_exact() {
        let mut log = ExecLog::default();
        let variants = [
            Tuple::new("T", 1i64, vec![Value::Int(1)]),
            Tuple::new("T", 1i64, vec![Value::str("1")]),
            Tuple::new("T", 1i64, vec![Value::Wild]),
            Tuple::new("T", 1i64, vec![Value::Bool(true)]),
            Tuple::new("T", Value::str("1"), vec![Value::Int(1)]),
            Tuple::new("T", Value::Wild, vec![Value::Int(1)]),
            Tuple::new("T1", 1i64, vec![]),
        ];
        for round in 0..2 {
            for v in &variants {
                let tid = log.mint(v, TupleKind::Base, round, true);
                assert_eq!(log.tuple(tid), v);
            }
        }
        assert_eq!(log.tuples.items.len(), variants.len(), "one ref per distinct tuple");
        let refs: Vec<u32> = log.insts.iter().map(|i| i.tuple).collect();
        assert_eq!(refs[..variants.len()], refs[variants.len()..], "equal tuples share a ref");
        // Growth past the first slot table keeps every ref findable.
        for i in 0..1000 {
            log.mint(&t(i), TupleKind::Base, 9, false);
        }
        for (r, v) in variants.iter().enumerate() {
            assert_eq!(log.tuples.get(v), Some(r as u32));
        }
    }

    #[test]
    fn recording_off_keeps_eight_bytes_per_instance() {
        let mut log = ExecLog::default();
        for i in 0..100 {
            let tid = log.mint(&t(i % 4), TupleKind::Event, i as Time, false);
            log.close(tid, i as Time);
            assert_eq!((log.tuple(tid), log.kind(tid), log.is_live(tid)), (&t(i % 4), TupleKind::Event, false));
        }
        assert_eq!(log.records().len(), 0);
        assert!(log.is_empty());
        let interned: u64 = 4 * (size_of::<Tuple>() + 1 + size_of::<Value>()) as u64;
        assert_eq!(log.storage_bytes(), 100 * 8 + interned);
        assert!(log.heap_bytes() >= log.storage_bytes());
    }

    #[test]
    fn byte_counts_are_the_columns() {
        let log = small_log();
        // Three tuples of one argument, one of them at node `C`.
        let interned = 3 * (size_of::<Tuple>() + 1 + size_of::<Value>()) + 1 + 3 * size_of::<u32>();
        // Only the sending node is interned; the receiver is the head's own.
        let nodes = size_of::<Value>() + 1;
        let rows = 4 * (8 + 24) + 9 * 32 + 4 * size_of::<TupleId>();
        assert_eq!(log.storage_bytes(), (interned + nodes + rows) as u64, "the rule ids are the program's");
        assert!(log.heap_bytes() >= log.storage_bytes() + 2 * 16 * 4, "capacity and both slot tables");
    }

    #[test]
    fn a_shared_string_is_one_heap_allocation_and_a_copy_per_row_stored() {
        let table: Arc<str> = "T".into();
        let (mut shared, mut own) = (ExecLog::default(), ExecLog::default());
        for i in 0..3 {
            shared.mint(&Tuple::new(Arc::clone(&table), 1i64, vec![Value::Int(i)]), TupleKind::Base, 9, false);
            own.mint(&t(i), TupleKind::Base, 9, false);
        }
        assert_eq!(shared.storage_bytes(), own.storage_bytes());
        let arc_str = 2 * size_of::<usize>() as u64 + 1;
        assert_eq!(own.heap_bytes() - shared.heap_bytes(), 2 * arc_str, "three allocations, or one");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn chain_reads_do_not_grow_with_the_log() {
        // The same three derivations of one head, behind 10 and behind
        // 10 000 unrelated instances and events.
        let visited = |noise: i64| {
            let mut log = for_rules(&["r"]);
            let head = log.mint(&t(-1), TupleKind::Derived, 0, true);
            let far = log.mint(&Tuple::new("L", "C", vec![]), TupleKind::Base, 0, true);
            for i in 0..noise {
                let tid = log.mint(&t(i), TupleKind::Base, 1, true);
                log.insert_base(1, tid);
                if i % (noise / 3) == 0 {
                    log.derive(2, 0, head, &[tid], far);
                }
            }
            let before = rows_visited();
            assert_eq!(log.derivations_of(head).len(), 3);
            assert!(log.shipment_of(head).is_some());
            assert_eq!(log.instances_of(&t(-1)).len(), 1);
            assert!(log.instance_alive_at(&t(-1), 2).is_some());
            rows_visited() - before
        };
        assert_eq!(visited(12), visited(9_999));
    }
}
