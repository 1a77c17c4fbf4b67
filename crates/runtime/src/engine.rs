//! The NDlog evaluation engine.
//!
//! One evaluation path, [`EvalStrategy::Batch`] — *batch semi-naive
//! iteration*: each fixpoint runs in rounds; a whole round's delta is
//! joined at once against the store — a full-key probe of a table's key
//! map where the join knows the whole key, a scan in tuple-id order where
//! it does not — with one round id per tuple ([`crate::delta`]) ensuring
//! each new body combination fires exactly once per round. Its rules are
//! compiled ([`crate::compiled`]): variables are slots of a frame, atoms
//! column programs, and when each selection runs is fixed per rule, so a
//! firing names no variable and clones no syntax. A rule is compiled the
//! first time a delta reaches it, so a program pays for the rules its
//! traffic fires;
//! construction only checks every rule ([`crate::compiled::check`]), so a
//! program is refused exactly as if every rule had been compiled.
//!
//! A batch engine answers a repeated event at an unchanged state
//! generation by replaying its filed step, and a first occurrence whose
//! step would change nothing by [`crate::QuietSteps`], the joint backtest's
//! rule too (`memo.rs`; [`Engine::steps`], [`Engine::memo_hits`] and
//! [`Engine::unheard`] count the three kinds of answer).
//!
//! A second evaluator, [`EvalStrategy::Pipelined`], is kept as a *test
//! reference* only: the strategy RapidNet uses (and the one the paper's
//! provenance model assumes), where every inserted or derived tuple becomes
//! a *delta* that is joined, one tuple at a time, against full scans of the
//! materialized state. It keeps its rules as source and runs them through
//! the name-keyed interpreter ([`match_atom`], `Selection::eval` over an
//! `Env`, [`instantiate`]) — sharing with the batch path neither the
//! propagation loop nor what a rule is at run time, nor the step memo,
//! which is what makes it an oracle for all three. `tests/differential.rs`
//! proves both produce the same fixpoints and provenance-equivalent
//! derivations over generated programs, and on event streams with repeats
//! the same step results, stores and logs.
//!
//! Derived state carries support counts so deletions cascade correctly
//! (UNDERIVE/DISAPPEAR, §3.1); tables with declared primary keys follow
//! NDlog's replacement semantics. Every table has one schema in the store:
//! the program's declaration, set semantics at its one arity for a table
//! the program uses undeclared, and for a table the program never names,
//! the arity of its first insert.
//!
//! A derivation that a disappearing body tuple can retract is remembered
//! as three ids (head instance, the log's `Derive` row, an active flag)
//! under each of its state body instances; a derivation whose body is all
//! events can never be retracted and is remembered nowhere. History goes to
//! the [`crate::log::ExecLog`] only when [`Options::record_events`] is on —
//! with it off no event is built, and the log keeps just the instance rows
//! (tuple ref, kind, liveness) that retraction and replacement read.
//!
//! Event tables (`materialize(..., event, ...)`) are transient: their
//! tuples trigger rules at their instant of insertion but are never stored,
//! and derivations triggered by an event do not retract when the event
//! passes — this is exactly how a `PacketIn` installs a persistent
//! `FlowTable` entry.

use crate::batch::{self, TriggerIndex, TriggerLists};
use crate::codec::{self, WalRecord};
use crate::compiled::{self, LazyRule};
use crate::delta::DeltaTracker;
use crate::log::{ExecLog, Time, TupleId, TupleKind};
use crate::memo::{Head, StepMemo};
use crate::store::{AddOutcome, DropOutcome, Store};
use mpr_ndlog::ast::{Atom, Expr, Rule, Term};
use mpr_ndlog::eval::{Bindings, CountingFuncs, Env};
use mpr_ndlog::{Program, ProgramOutline, Schema, Tuple, Value};
use mpr_storage::{Recovery, StorageBackend, StorageError, WalBackend, WalConfig};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the engine propagates deltas to fixpoint.
///
/// An engine's strategy is whatever the [`Options`] value it was built
/// from says — there is no process-wide selector. Deployments run
/// [`EvalStrategy::Batch`]; [`EvalStrategy::Pipelined`] exists so tests can
/// pin the batch round loop against a second, simpler propagation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalStrategy {
    /// Batch semi-naive: whole rounds of deltas join at once against the
    /// store's key maps, with the round that made each tuple visible
    /// tracked.
    #[default]
    Batch,
    /// Per-tuple pipelined semi-naive: each delta joins against full table
    /// scans immediately. A *test reference*, never a deployment choice:
    /// it is the differential oracle for the semantics the naive evaluator
    /// ([`crate::naive`]) cannot express — primary-key replacement,
    /// transient events, deletion cascades and derivation sets — and is
    /// reachable only through an explicit per-engine
    /// `Options { strategy: EvalStrategy::Pipelined, .. }`.
    Pipelined,
}

impl std::fmt::Display for EvalStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalStrategy::Batch => write!(f, "batch"),
            EvalStrategy::Pipelined => write!(f, "pipelined"),
        }
    }
}

/// Whether the engine writes its inputs to a write-ahead log.
///
/// [`Durability::Mem`] is the zero-cost default. Under
/// [`Durability::Wal`] the engine writes a header record that fingerprints
/// the program, then one record per [`Engine::insert`] / [`Engine::delete`]
/// call, before evaluating it. The engine is a pure function of program,
/// options and inputs, so [`Engine::recover`] re-runs the surviving
/// records through the same calls and gets back the store, the
/// [`ExecLog`] and the derivation records. Writes are
/// buffered by the OS and never synced: the log survives the death of the
/// process (the kill sweep), not the loss of power. A WAL that fails to
/// open or write never takes evaluation down; the engine goes on in memory
/// only and reports it through [`Engine::durability_degraded`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Durability {
    /// In-memory only: no log, no recovery, no overhead.
    #[default]
    Mem,
    /// Write-ahead log under the configured directory.
    Wal(WalOptions),
}

/// Configuration for [`Durability::Wal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOptions {
    /// Parent directory for WAL state. Every engine logs into an
    /// `engine-<n>` subdirectory it creates itself, so no two engines share
    /// a log, in one process or across processes; [`Engine::wal_dir`]
    /// reports the resolved path.
    pub dir: PathBuf,
}

impl WalOptions {
    /// WAL under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalOptions { dir: dir.into() }
    }
}

/// Where the next engine's `engine-<n>` search starts.
static WAL_ENGINE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The first `engine-<n>` under `parent`, from the process counter on,
/// that this call creates — never one that already holds a log.
fn fresh_engine_dir(parent: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(parent)?;
    loop {
        let dir = parent.join(format!("engine-{}", WAL_ENGINE_SEQ.fetch_add(1, Ordering::Relaxed)));
        match std::fs::create_dir(&dir) {
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            created => return created.map(|()| dir),
        }
    }
}

/// What [`Engine::recover`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRecovery {
    /// Clean, or recovered with a typed loss report (from the backend).
    pub status: Recovery,
    /// Input records re-run.
    pub inputs: usize,
}

/// Why [`Engine::recover`] refused a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The program does not compile.
    Compile(CompileError),
    /// The log could not be opened or read.
    Storage(StorageError),
    /// The log was written for another program.
    ProgramMismatch {
        /// Fingerprint of the program given to `recover`.
        expected: u64,
        /// Fingerprint in the log's header.
        found: u64,
    },
    /// A record passed its checksum but is not a header-then-inputs record.
    BadRecord {
        /// Index of the record in the log.
        index: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Compile(e) => write!(f, "{e}"),
            RecoverError::Storage(e) => write!(f, "{e}"),
            RecoverError::ProgramMismatch { expected, found } => {
                write!(f, "WAL written for program {found:016x}, not {expected:016x}")
            }
            RecoverError::BadRecord { index, reason } => write!(f, "WAL record {index}: {reason}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Durability::Mem => write!(f, "mem"),
            Durability::Wal(w) => write!(f, "wal:{}", w.dir.display()),
        }
    }
}

/// Engine construction error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program failed [`Program::validate`].
    InvalidProgram(String),
    /// A selection references a variable bound nowhere.
    UnboundSelectionVar {
        /// Rule id.
        rule: String,
        /// The offending variable.
        var: String,
    },
    /// An assignment uses a variable bound neither by the body nor by an
    /// earlier assignment.
    UnboundAssignVar {
        /// Rule id.
        rule: String,
        /// The offending variable.
        var: String,
    },
    /// An expression calls a function the runtime does not provide: the
    /// one built-in is the zero-argument `f_unique()`.
    UnknownFunction {
        /// Rule id.
        rule: String,
        /// The called name.
        func: String,
        /// How many arguments the call passes.
        arity: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::InvalidProgram(m) => write!(f, "invalid program: {m}"),
            CompileError::UnboundSelectionVar { rule, var } => {
                write!(f, "rule `{rule}`: selection uses unbound variable `{var}`")
            }
            CompileError::UnboundAssignVar { rule, var } => {
                write!(f, "rule `{rule}`: assignment uses unbound variable `{var}`")
            }
            CompileError::UnknownFunction { rule, func, arity } => {
                write!(f, "rule `{rule}`: calls `{func}` with {arity} argument(s); the one built-in is `f_unique()`")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A call the engine refused or cut short. Evaluation itself is total:
/// no rule, value or arithmetic makes it fail.
///
/// Neither variant is a corruption, and the engine stays usable after
/// either: a step cut short by its budget leaves no round open, merges
/// what it derived but never fired so that later steps join it, and
/// keeps its store and log intact; callers just must not assume that
/// step reached its fixpoint. A refused tuple is not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// One step needed more than [`Options::max_derivations`] rule
    /// firings (runaway recursion guard).
    DerivationLimit(u64),
    /// Arity of an inserted tuple does not match its table's schema: the
    /// program's, or what the table's first insert fixed.
    ArityMismatch {
        /// Table name.
        table: String,
        /// Expected payload arity.
        expected: usize,
        /// Actual payload arity.
        got: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::DerivationLimit(n) => write!(f, "derivation limit exceeded ({n})"),
            RuntimeError::ArityMismatch { table, expected, got } => {
                write!(f, "tuple arity mismatch for `{table}`: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The first value `f_unique()` returns, so runs are reproducible.
const UNIQUE_SEED: i64 = 1000;

/// Engine options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Record provenance events (§5.4 measures the cost of turning this on).
    pub record_events: bool,
    /// The runaway guard: the most rule firings one step — one
    /// [`Engine::insert`] or [`Engine::delete`] call, run to fixpoint —
    /// may make, under either strategy. A step that needs more fails with
    /// [`RuntimeError::DerivationLimit`] and the next starts from zero, so
    /// a long-running engine is never worn out. It also bounds a step's
    /// semi-naive rounds: every round after a drain's first fires only
    /// what a counted firing produced.
    pub max_derivations: u64,
    /// How deltas propagate to fixpoint (see [`EvalStrategy`]).
    pub strategy: EvalStrategy,
    /// Whether the engine writes its inputs to a WAL (see
    /// [`Durability`]); [`Durability::Mem`] by default.
    pub durability: Durability,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            record_events: true,
            max_derivations: 1_000_000,
            strategy: EvalStrategy::default(),
            durability: Durability::default(),
        }
    }
}

/// What changed during one externally driven step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepResult {
    /// Tuples that appeared (including transient event derivations).
    pub appeared: Vec<Tuple>,
    /// Tuples that disappeared.
    pub disappeared: Vec<Tuple>,
    /// Number of rule firings in this step.
    pub derivations: u64,
}

/// What the engine keeps per rule besides its source. A rule of a
/// [`EvalStrategy::Batch`] engine fires through its compiled form
/// ([`crate::compiled`]), made at the first delta that reaches it; every
/// rule of a [`EvalStrategy::Pipelined`] reference engine runs its source
/// through the name-keyed interpreter.
#[derive(Debug)]
pub(crate) struct EngineRule {
    /// The compiled form, against the store's schemas.
    pub(crate) compiled: LazyRule,
    /// Is the head an event table?
    head_is_event: bool,
}

/// A derivation that a disappearing body tuple can still retract. Ids
/// only: the head tuple, rule, body and origin are in the log.
#[derive(Debug)]
struct DerivRecord {
    head: TupleId,
    /// The log's `Derive` row ([`ExecLog::underive`]'s handle); unused with
    /// recording off.
    derive_row: u32,
    active: bool,
}

/// The firing behind a unit of derived support: rule index, body instances
/// in body-atom order, and the delta that fired it, at whose node the
/// firing ran.
pub(crate) type Firing<'a> = (usize, &'a [TupleId], TupleId);

/// The engine. See the module docs for semantics.
pub struct Engine {
    /// The program, shared with whoever built the engine (the controller).
    pub(crate) program: Arc<Program>,
    /// What `program` was checked against when the engine was built.
    outline: Arc<ProgramOutline>,
    /// One per rule of `program`. Shared so a firing can hold its rule
    /// across the `&mut self` calls it makes.
    pub(crate) rules: Arc<Vec<EngineRule>>,
    /// table → (rule index, body atom index) that the table can trigger
    /// (pipelined only). Shared so the drain loop can hold a table's list
    /// across `&mut self` firing calls without copying it per delta tuple.
    triggers: HashMap<String, Arc<Vec<(usize, usize)>>>,
    pub(crate) store: Store,
    pub(crate) log: ExecLog,
    pub(crate) opts: Options,
    pub(crate) funcs: CountingFuncs,
    time: Time,
    next_tid: TupleId,
    /// Derivations with at least one state body tuple — the others can
    /// never be retracted and keep no record.
    records: Vec<DerivRecord>,
    /// State body instance → the records it supports.
    by_body: HashMap<TupleId, Vec<u32>>,
    /// Records `kill` has looked at (the O(dependents) pin).
    #[cfg(test)]
    records_visited: u64,
    pub(crate) total_derivations: u64,
    /// Which propagation discipline `drain` uses.
    strategy: EvalStrategy,
    /// Per-table trigger lists grouped by pushed-down constant (batch
    /// only): a delta visits only the group matching its own value plus
    /// the residual triggers, instead of every rule the table appears in.
    /// Shared with whoever dispatches the same rules again (the joint
    /// backtest, [`Engine::trigger_index`]).
    pub(crate) index: Option<Arc<TriggerIndex>>,
    /// The round that made each tuple visible (batch only).
    pub(crate) deltas: DeltaTracker,
    /// The join loop's buffers, reused from one firing to the next.
    pub(crate) scratch: batch::JoinScratch,
    /// The delta queue of the last finished batch drain, empty: the next
    /// insertion queues into it instead of allocating one.
    pub(crate) spare_queue: VecDeque<(TupleId, Tuple)>,
    /// Event steps filed for replay (batch only; `memo.rs`).
    pub(crate) memo: StepMemo,
    /// The input log under [`Durability::Wal`], while it is healthy.
    wal: Option<WalBackend>,
    /// Why the WAL failed to open or write, if it did.
    wal_degraded: Option<String>,
}

impl Engine {
    /// An engine for `program` with default options.
    pub fn new(program: &Program) -> Result<Self, CompileError> {
        Self::with_options(program, Options::default())
    }

    /// An engine for a copy of `program`.
    pub fn with_options(program: &Program, opts: Options) -> Result<Self, CompileError> {
        Self::shared(Arc::new(program.clone()), opts)
    }

    /// An engine for `program`, shared rather than copied (the controller
    /// hands over its own). Every rule is checked here — a program is
    /// refused with the first rule's [`CompileError`], in program order,
    /// whether or not a delta ever reaches that rule — and compiled the
    /// first time a delta reaches it.
    pub fn shared(program: Arc<Program>, opts: Options) -> Result<Self, CompileError> {
        let mut rules = Vec::with_capacity(program.rules.len());
        let strategy = opts.strategy;
        // One walk of each rule outlines the program, checks the rule and
        // collects its triggers.
        let mut lists = TriggerLists::default();
        let outline = ProgramOutline::checking(&program, CompileError::InvalidProgram, |ri, rule, bound| {
            compiled::check(rule, bound)?;
            let head_is_event = program.catalog.get(&rule.head.table).is_some_and(|s| !s.is_state());
            rules.push(EngineRule { compiled: LazyRule::default(), head_is_event });
            lists.add(ri, rule);
            Ok(())
        })?;
        let outline = Arc::new(outline);
        let mut store = Store::new();
        for s in program.catalog.iter() {
            store.declare(s.clone());
        }
        // A table the program uses undeclared is state under set semantics,
        // at the one arity validation allowed it.
        for (table, arity) in outline.arities() {
            if store.catalog().get(table).is_none() {
                store.declare(Schema::state(table, arity));
            }
        }
        let funcs = CountingFuncs::starting_at(UNIQUE_SEED);
        let (index, triggers) = match strategy {
            EvalStrategy::Batch => (Some(Arc::new(lists.index(program.rules.len()))), HashMap::new()),
            EvalStrategy::Pipelined => {
                (None, lists.into_lists().map(|(t, l)| (t.to_string(), Arc::new(l))).collect())
            }
        };
        // A WAL that cannot open degrades to memory-only instead of
        // failing construction.
        let (mut wal, mut wal_degraded) = (None, None);
        if let Durability::Wal(w) = &opts.durability {
            match fresh_engine_dir(&w.dir)
                .map_err(|e| format!("open {}: {e}", w.dir.display()))
                .and_then(|dir| {
                    WalBackend::open(WalConfig::new(&dir)).map_err(|e| format!("open {}: {e}", dir.display()))
                }) {
                Ok(backend) => wal = Some(backend),
                Err(why) => wal_degraded = Some(why),
            }
        }
        // Rule ids are read back only through logged derivations.
        let log = if opts.record_events { ExecLog::for_program(Arc::clone(&program)) } else { ExecLog::default() };
        let mut engine = Engine {
            program,
            outline,
            rules: Arc::new(rules),
            triggers,
            store,
            log,
            opts,
            funcs,
            time: 0,
            next_tid: 0,
            records: Vec::new(),
            by_body: HashMap::new(),
            #[cfg(test)]
            records_visited: 0,
            total_derivations: 0,
            strategy,
            index,
            deltas: DeltaTracker::default(),
            scratch: batch::JoinScratch::default(),
            spare_queue: VecDeque::new(),
            memo: StepMemo::default(),
            wal,
            wal_degraded,
        };
        if engine.wal.is_some() {
            engine.write_input(codec::header_record(&engine.program));
        }
        Ok(engine)
    }

    /// The engine whose inputs the WAL in `dir` recorded: a fresh engine
    /// for `program` and `opts` re-runs every whole input record through
    /// [`Engine::insert`] / [`Engine::delete`], so its store, log,
    /// and derivation records are what the logging engine's were
    /// after those calls. A torn tail is cut off and reported in
    /// [`EngineRecovery::status`]. The recovered engine appends its own
    /// inputs to `dir`; `opts.durability` is not read. A log written for
    /// another program is refused.
    pub fn recover(
        program: Arc<Program>,
        opts: Options,
        dir: &Path,
    ) -> Result<(Engine, EngineRecovery), RecoverError> {
        let mut backend = WalBackend::open(WalConfig::new(dir)).map_err(RecoverError::Storage)?;
        let recovered = backend.recover().map_err(RecoverError::Storage)?;
        let mut engine = Engine::shared(program, Options { durability: Durability::Mem, ..opts })
            .map_err(RecoverError::Compile)?;
        engine.rerun(&recovered.records)?;
        engine.wal = Some(backend);
        if recovered.records.is_empty() {
            engine.write_input(codec::header_record(&engine.program));
        }
        let inputs = recovered.records.len().saturating_sub(1);
        Ok((engine, EngineRecovery { status: recovered.status, inputs }))
    }

    /// Re-run the `records` of a WAL: its header, which must be this
    /// engine's program's, then each input through [`Engine::insert`] /
    /// [`Engine::delete`] in order; a call that failed live fails the same
    /// way here. A second header is refused.
    pub fn rerun(&mut self, records: &[Vec<u8>]) -> Result<(), RecoverError> {
        let expected = codec::fingerprint(&self.program);
        for (index, record) in records.iter().enumerate() {
            let bad = |reason: String| RecoverError::BadRecord { index, reason };
            let _ = match (index, WalRecord::decode(record).map_err(bad)?) {
                (0, WalRecord::Header(found)) if found != expected => return Err(RecoverError::ProgramMismatch { expected, found }),
                (0, WalRecord::Header(_)) => continue,
                (0, _) => return Err(bad("the log does not open with a header".into())),
                (_, WalRecord::Insert(tuple)) => self.insert(tuple),
                (_, WalRecord::Delete(tuple)) => Ok(self.delete(&tuple)),
                (_, WalRecord::Header(_)) => return Err(bad("a second header".into())),
            };
        }
        Ok(())
    }

    /// The program the engine runs.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The outline the engine checked its program against, for reuse.
    pub fn outline(&self) -> &Arc<ProgramOutline> {
        &self.outline
    }

    /// The trigger index a batch engine dispatches its program's deltas
    /// through, for reuse; `None` under [`EvalStrategy::Pipelined`].
    pub fn trigger_index(&self) -> Option<&Arc<TriggerIndex>> {
        self.index.as_ref()
    }

    /// Current logical time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// The evaluation strategy this engine was built with.
    pub fn strategy(&self) -> EvalStrategy {
        self.strategy
    }

    /// Always 0: joins read the store's own key maps, and the engine keeps
    /// no second copy of its state to count. Kept because the benchmark
    /// reports it, where 0 reads "layer not exercised".
    pub fn index_entries(&self) -> usize {
        0
    }

    /// The execution log.
    pub fn log(&self) -> &ExecLog {
        &self.log
    }

    /// Take ownership of the log, leaving an empty one. Instance ids are
    /// rows of the log, so the engine must not be driven afterwards.
    pub fn take_log(&mut self) -> ExecLog {
        std::mem::take(&mut self.log)
    }

    /// Rule firings over the engine's life, replayed steps included; the
    /// budget, [`Options::max_derivations`], is per step.
    pub fn total_derivations(&self) -> u64 {
        self.total_derivations
    }

    /// The tuple store (read-only; mutations go through the engine so
    /// provenance and the WAL stay consistent).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The batch engine's round tracker (read-only). Between calls no
    /// round is open, and every live state tuple reads as merged.
    pub fn deltas(&self) -> &DeltaTracker {
        &self.deltas
    }

    /// The directory this engine's WAL lives in, under
    /// [`Durability::Wal`] while the log is healthy.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.wal.as_ref().map(WalBackend::dir)
    }

    /// Why the WAL shut itself off, if it did: it failed to open at
    /// construction, or a later write failed and the engine went on in
    /// memory only. `None` = healthy (or `Mem` mode).
    pub fn durability_degraded(&self) -> Option<String> {
        self.wal_degraded.clone()
    }

    /// Append one record to the WAL, if there is one; the first failure
    /// closes it for good.
    fn write_input(&mut self, record: Vec<u8>) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        if let Err(e) = wal.append(&record).and_then(|_| wal.flush()) {
            self.wal = None;
            self.wal_degraded = Some(format!("append: {e}"));
        }
    }

    /// `true` if the exact tuple is currently live.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.store.contains(t)
    }

    /// Live tuples of `table`, sorted.
    pub fn tuples(&self, table: &str) -> Vec<Tuple> {
        self.store.tuples(table)
    }

    /// Number of live tuples across all tables.
    pub fn tuple_count(&self) -> usize {
        self.store.len()
    }

    /// Insert a base tuple and run to fixpoint. Under [`Durability::Wal`]
    /// the call is logged first, whether it then fails or not.
    pub fn insert(&mut self, tuple: Tuple) -> Result<StepResult, RuntimeError> {
        if self.wal.is_some() {
            self.write_input(codec::input_record(codec::INSERT, &tuple));
        }
        self.time += 1;
        // A table the program never names is state, at the arity of its
        // first insert.
        if self.store.catalog().get(&tuple.table).is_none() {
            self.store.declare(Schema::state(&*tuple.table, tuple.args.len()));
        }
        let schema = self.store.catalog().get(&tuple.table).expect("declared above");
        let (arity, is_state) = (schema.arity, schema.is_state());
        if arity != tuple.args.len() {
            return Err(RuntimeError::ArityMismatch {
                table: tuple.table.to_string(),
                expected: arity,
                got: tuple.args.len(),
            });
        }
        if !is_state {
            return self.insert_event(tuple);
        }
        let mut result = StepResult::default();
        let mut queue = std::mem::take(&mut self.spare_queue);
        self.add_support(&tuple, true, None, &mut queue, &mut result);
        self.drain(queue, &mut result)?;
        Ok(result)
    }

    /// Insert many base tuples (fixpoint after each).
    pub fn insert_all<I: IntoIterator<Item = Tuple>>(
        &mut self,
        tuples: I,
    ) -> Result<StepResult, RuntimeError> {
        let mut total = StepResult::default();
        for t in tuples {
            let r = self.insert(t)?;
            total.appeared.extend(r.appeared);
            total.disappeared.extend(r.disappeared);
            total.derivations += r.derivations;
        }
        Ok(total)
    }

    /// Delete a base tuple (one unit of base support) and cascade, logged
    /// first like [`Engine::insert`]. Unlike an insertion it cannot fail:
    /// retraction fires no rule and checks no arity.
    pub fn delete(&mut self, tuple: &Tuple) -> StepResult {
        if self.wal.is_some() {
            self.write_input(codec::input_record(codec::DELETE, tuple));
        }
        self.time += 1;
        let mut result = StepResult::default();
        match self.store.drop_support(tuple, true) {
            DropOutcome::Absent => {}
            DropOutcome::StillAlive => {
                if let Some(live) = self.store.get(tuple).filter(|_| self.opts.record_events) {
                    self.log.delete_base(self.time, live.tid);
                }
            }
            DropOutcome::Gone(tid) => {
                if self.opts.record_events {
                    self.log.delete_base(self.time, tid);
                }
                self.kill(tid, tuple.clone(), &mut result);
            }
        }
        result
    }

    // ------------------------------------------------------------------
    // internals

    fn mint(&mut self, tuple: &Tuple, kind: TupleKind) -> TupleId {
        let (tref, _) = self.log.intern(tuple, self.log.hash_tuple(tuple));
        self.mint_interned(tref, kind)
    }

    /// [`Engine::mint`] for a tuple the log interned under `tref`.
    pub(crate) fn mint_interned(&mut self, tref: u32, kind: TupleKind) -> TupleId {
        let tid = self.log.mint_interned(tref, kind, self.time, self.opts.record_events);
        debug_assert_eq!(tid, self.next_tid);
        self.next_tid += 1;
        tid
    }

    /// An inserted event, interned under `tref`: INSERT, APPEAR and
    /// DISAPPEAR while recording, for it is gone at once.
    pub(crate) fn begin_event(&mut self, tref: u32) -> TupleId {
        let tid = self.mint_interned(tref, TupleKind::Event);
        if self.opts.record_events {
            self.log.insert_event(self.time, tid);
        }
        self.log.close(tid, self.time);
        tid
    }

    /// Add one unit of support (base or derived) for a *state* tuple.
    fn add_support(
        &mut self,
        tuple: &Tuple,
        base: bool,
        derive: Option<Firing<'_>>,
        queue: &mut VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) {
        let kind = if base { TupleKind::Base } else { TupleKind::Derived };
        let mut fresh: Option<TupleId> = None;
        let outcome = {
            let next_tid = &mut self.next_tid;
            let pending = &mut fresh;
            self.store.add(tuple, base, &mut || {
                let tid = *next_tid;
                *next_tid += 1;
                *pending = Some(tid);
                tid
            })
        };
        // If a fresh tid was minted inside the store, register its record.
        if let Some(tid) = fresh {
            let minted = self.log.mint(tuple, kind, self.time, self.opts.record_events);
            debug_assert_eq!(tid, minted);
        }
        match outcome {
            AddOutcome::New(tid) => {
                self.memo.state_moved();
                self.announce(tid, tuple, base, derive, result);
                queue.push_back((tid, tuple.clone()));
            }
            AddOutcome::SupportOnly(tid) => {
                // No visible change; log the derivation/insert itself.
                self.log_support(tid, base, derive);
                if let Some(firing) = derive {
                    self.memo.tape(Head::Support(tid), firing);
                }
            }
            AddOutcome::Replaced { old, new } => {
                self.memo.state_moved();
                // The evicted instance dies with a full cascade (its
                // support is already gone from the store), then the
                // replacement appears.
                queue.push_back((new, tuple.clone()));
                let old_tuple = self.log.tuple(old).clone();
                self.kill(old, old_tuple, result);
                self.announce(new, tuple, base, derive, result);
            }
        }
    }

    fn announce(
        &mut self,
        tid: TupleId,
        tuple: &Tuple,
        base: bool,
        derive: Option<Firing<'_>>,
        result: &mut StepResult,
    ) {
        self.log_support(tid, base, derive);
        if self.opts.record_events {
            self.log.appear(self.time, tid);
        }
        result.appeared.push(tuple.clone());
    }

    /// Log one unit of support for `tid`: INSERT, or the derivation.
    fn log_support(&mut self, tid: TupleId, base: bool, derive: Option<Firing<'_>>) {
        if base {
            if self.opts.record_events {
                self.log.insert_base(self.time, tid);
            }
        } else if let Some(firing) = derive {
            self.register_derivation(tid, firing);
        }
    }

    /// DERIVE (and SEND/RECEIVE for a remote head) while recording; and,
    /// recording or not, a [`DerivRecord`] if a state body tuple can later
    /// retract the head.
    pub(crate) fn register_derivation(&mut self, head: TupleId, (rule_idx, body, origin): Firing<'_>) {
        let derive_row = if self.opts.record_events {
            self.log.derive(self.time, rule_idx, head, body, origin)
        } else {
            u32::MAX
        };
        let mut state_body = body.iter().filter(|&&b| self.log.kind(b) != TupleKind::Event).peekable();
        if state_body.peek().is_none() {
            return;
        }
        let idx = u32::try_from(self.records.len()).expect("fewer than 2^32 retractable derivations");
        for &b in state_body {
            self.by_body.entry(b).or_default().push(idx);
        }
        self.records.push(DerivRecord { head, derive_row, active: true });
    }

    /// Kill a tuple instance that lost all support: cascade retractions.
    /// Retraction fires no rule, so it runs no fixpoint and cannot fail.
    fn kill(&mut self, tid: TupleId, tuple: Tuple, result: &mut StepResult) {
        self.memo.state_moved();
        // A pipelined engine opens no round.
        self.deltas.retire(tid);
        // Closing the instance also retires every derivation that produced
        // it: the loop below skips records whose head is no longer live.
        self.log.close(tid, self.time);
        if self.opts.record_events {
            self.log.disappear(self.time, tid);
        }
        result.disappeared.push(tuple);
        // Retract derivations this tuple participated in.
        for ridx in self.by_body.remove(&tid).unwrap_or_default() {
            #[cfg(test)]
            {
                self.records_visited += 1;
            }
            let rec = &mut self.records[ridx as usize];
            if !rec.active || !self.log.is_live(rec.head) {
                continue;
            }
            rec.active = false;
            let head_tid = rec.head;
            if self.opts.record_events {
                self.log.underive(self.time, rec.derive_row);
            }
            match self.store.drop_support(self.log.tuple(head_tid), false) {
                DropOutcome::Gone(gone_tid) => {
                    debug_assert_eq!(gone_tid, head_tid);
                    let head = self.log.tuple(head_tid).clone();
                    self.kill(head_tid, head, result);
                }
                DropOutcome::StillAlive | DropOutcome::Absent => {}
            }
        }
    }

    /// Propagate appearances until fixpoint, under the engine's strategy.
    pub(crate) fn drain(
        &mut self,
        queue: VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) -> Result<(), RuntimeError> {
        match self.strategy {
            EvalStrategy::Batch => self.drain_batch(queue, result),
            EvalStrategy::Pipelined => self.drain_pipelined(queue, result),
        }
    }

    /// Pipelined propagation: pop one delta at a time and join it against
    /// full scans of the materialized state.
    fn drain_pipelined(
        &mut self,
        mut queue: VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) -> Result<(), RuntimeError> {
        // The step's derivation budget bounds this loop: the queue only
        // grows through counted firings.
        while let Some((tid, tuple)) = queue.pop_front() {
            // A tuple may have died while queued (replacement/cascade).
            if self.log.kind(tid) != TupleKind::Event && !self.log.is_live(tid) {
                continue;
            }
            let trigger_list = match self.triggers.get(&*tuple.table) {
                Some(l) => std::sync::Arc::clone(l),
                None => continue,
            };
            for &(rule_idx, atom_idx) in trigger_list.iter() {
                self.fire(rule_idx, atom_idx, tid, &tuple, &mut queue, result)?;
            }
        }
        Ok(())
    }

    /// Try all joins of `rule` with the delta bound to body atom `atom_idx`
    /// (the pipelined reference: full scans, the name-keyed interpreter).
    fn fire(
        &mut self,
        rule_idx: usize,
        atom_idx: usize,
        delta_tid: TupleId,
        delta: &Tuple,
        queue: &mut VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) -> Result<(), RuntimeError> {
        let program = Arc::clone(&self.program);
        let rule = &program.rules[rule_idx];
        let Some(env0) = match_atom(&rule.body[atom_idx], delta, &Env::new()) else {
            return Ok(());
        };
        // Join the remaining atoms left to right (skipping the delta slot).
        let order: Vec<usize> = (0..rule.body.len()).filter(|&i| i != atom_idx).collect();
        let mut sel_done = vec![false; rule.sels.len()];
        // Evaluate selections satisfiable from the delta alone.
        if !self.eval_ready_sels(rule, &env0, &mut sel_done) {
            return Ok(());
        }
        let mut matches: Vec<(Env, Vec<TupleId>, Vec<bool>)> =
            vec![(env0, vec![delta_tid], sel_done)];
        for &ai in &order {
            let mut next: Vec<(Env, Vec<TupleId>, Vec<bool>)> = Vec::new();
            for (env, tids, sels) in &matches {
                // Candidate tuples: restrict to a node if the atom's
                // location is already bound.
                let atom = &rule.body[ai];
                let node_filter: Option<Value> = match &atom.loc {
                    Term::Const(v) => Some(v.clone()),
                    Term::Var(v) => env.get(v).cloned(),
                };
                // `scan_ordered`, not `scan`: under primary-key replacement
                // (last-write-wins) the candidate visit order is visible in
                // the fixpoint, so it must not inherit hash-map iteration
                // order (the batch path's scans sort their matches the
                // same way). A derived tuple is in the store
                // from the moment it is derived, but inserted — joinable —
                // only once it is dequeued.
                let candidates: Vec<(TupleId, Tuple)> = self
                    .store
                    .scan_ordered(&atom.table, node_filter.as_ref())
                    .into_iter()
                    .filter(|l| queue.iter().all(|(queued, _)| *queued != l.tid))
                    .map(|l| (l.tid, l.tuple.clone()))
                    .collect();
                for (ctid, ctuple) in candidates {
                    if let Some(env2) = match_atom(atom, &ctuple, env) {
                        let mut sels2 = sels.clone();
                        if !self.eval_ready_sels(rule, &env2, &mut sels2) {
                            continue;
                        }
                        let mut tids2 = tids.clone();
                        tids2.push(ctid);
                        next.push((env2, tids2, sels2));
                    }
                }
            }
            matches = next;
            if matches.is_empty() {
                return Ok(());
            }
        }
        // Reorder body tids into body-atom order for the provenance log.
        for (env, tids, sels) in matches {
            let mut body_tids = vec![0; tids.len()];
            body_tids[atom_idx] = tids[0];
            for (slot, &ai) in order.iter().enumerate() {
                body_tids[ai] = tids[slot + 1];
            }
            self.finish_firing(rule_idx, rule, env, sels, &body_tids, delta_tid, queue, result)?;
        }
        Ok(())
    }

    /// Evaluate every not-yet-done selection whose variables are all bound.
    /// Returns false if any evaluates to false (or errors).
    fn eval_ready_sels(&mut self, rule: &Rule, env: &Env, done: &mut [bool]) -> bool {
        for (sel, done) in rule.sels.iter().zip(done.iter_mut()) {
            if !*done && bound_in(&sel.lhs, env) && bound_in(&sel.rhs, env) {
                match sel.eval(env, &mut self.funcs) {
                    Ok(true) => *done = true,
                    _ => return false,
                }
            }
        }
        true
    }

    /// Count one firing against the step's derivation budget.
    pub(crate) fn count_derivation(&mut self, result: &mut StepResult) -> Result<(), RuntimeError> {
        self.total_derivations += 1;
        result.derivations += 1;
        if result.derivations > self.opts.max_derivations {
            return Err(RuntimeError::DerivationLimit(self.opts.max_derivations));
        }
        Ok(())
    }

    /// The interpreter's end of a firing: assignments, the selections they
    /// make ready, head construction.
    #[allow(clippy::too_many_arguments)]
    fn finish_firing(
        &mut self,
        rule_idx: usize,
        rule: &Rule,
        mut env: Env,
        mut sel_done: Vec<bool>,
        body_tids: &[TupleId],
        delta_tid: TupleId,
        queue: &mut VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) -> Result<(), RuntimeError> {
        self.count_derivation(result)?;
        for assign in &rule.assigns {
            let Ok(v) = assign.expr.eval(&env, &mut self.funcs) else {
                return Ok(()); // evaluation error → rule silently does not fire
            };
            match env.get(&assign.var) {
                Some(existing) if existing != &v => return Ok(()), // rebind mismatch
                _ => {
                    env.insert(assign.var.clone(), v);
                }
            }
            if !self.eval_ready_sels(rule, &env, &mut sel_done) {
                return Ok(());
            }
        }
        if !sel_done.iter().all(|&d| d) {
            // A selection never became ready — compile checks make this
            // unreachable, but stay total.
            return Ok(());
        }
        if let Some(head) = instantiate(&rule.head, &env) {
            self.emit_head(rule_idx, head, body_tids, delta_tid, queue, result);
        }
        Ok(())
    }

    /// A rule fired with the delta `delta_tid` and built `head`: derive it.
    pub(crate) fn emit_head(
        &mut self,
        rule_idx: usize,
        head: Tuple,
        body_tids: &[TupleId],
        delta_tid: TupleId,
        queue: &mut VecDeque<(TupleId, Tuple)>,
        result: &mut StepResult,
    ) {
        let firing = (rule_idx, body_tids, delta_tid);
        if self.rules[rule_idx].head_is_event {
            let tid = self.mint(&head, TupleKind::Event);
            self.derive_event(tid, firing);
            self.memo.tape(Head::Event(self.log.tuple_ref(tid)), firing);
            result.appeared.push(head.clone());
            queue.push_back((tid, head));
        } else {
            self.add_support(&head, false, Some(firing), queue, result);
        }
    }

    /// The derived event instance `tid`: DERIVE, APPEAR and DISAPPEAR while
    /// recording, for it is gone at once. It can never be retracted, so it
    /// keeps no [`DerivRecord`].
    pub(crate) fn derive_event(&mut self, tid: TupleId, (rule_idx, body, origin): Firing<'_>) {
        if self.opts.record_events {
            self.log.derive_event(self.time, rule_idx, tid, body, origin);
        }
        self.log.close(tid, self.time);
    }
}

/// Is every variable of `e` bound in `env`?
fn bound_in(e: &Expr, env: &Env) -> bool {
    match e {
        Expr::Const(_) => true,
        Expr::Var(v) => env.contains_key(v),
        Expr::Binary(_, l, r) => bound_in(l, env) && bound_in(r, env),
        Expr::Call(_, args) => args.iter().all(|a| bound_in(a, env)),
    }
}

/// Unify an atom against a concrete tuple, extending `env`. Returns the
/// extended environment on success.
///
/// Unification runs in two passes: [`unify_atom`] validates (borrowing
/// only), then — only for a successful match — one environment clone plus
/// the fresh bindings.
pub fn match_atom(atom: &Atom, tuple: &Tuple, env: &Env) -> Option<Env> {
    let mut fresh = Vec::new();
    if !unify_atom(atom, tuple, env, &mut fresh) {
        return None;
    }
    let mut out = env.clone();
    for (name, value) in fresh {
        out.insert(name.to_string(), value.clone());
    }
    Some(out)
}

/// The validation pass of [`match_atom`], for a caller that keeps its own
/// bindings: does `tuple` unify with `atom` under `env`, and which
/// bindings would the match add? They are left in `fresh` (cleared first),
/// borrowed from the atom and the tuple; a caller that reuses the buffer
/// pays no allocation for a candidate that fails, the common case in a
/// join loop.
pub fn unify_atom<'a>(
    atom: &'a Atom,
    tuple: &'a Tuple,
    env: &impl Bindings,
    fresh: &mut Vec<(&'a str, &'a Value)>,
) -> bool {
    fresh.clear();
    *atom.table == *tuple.table
        && atom.args.len() == tuple.args.len()
        && std::iter::once((&atom.loc, &tuple.loc))
            .chain(atom.args.iter().zip(&tuple.args))
            .all(|(term, value)| unify_term(term, value, env, fresh))
}

fn unify_term<'a>(
    term: &'a Term,
    value: &'a Value,
    env: &impl Bindings,
    fresh: &mut Vec<(&'a str, &'a Value)>,
) -> bool {
    match term {
        Term::Const(c) => c == value,
        Term::Var(v) => {
            // A variable can repeat within one atom; the repeat must agree
            // with the binding this very match introduced.
            let introduced = || fresh.iter().find(|(name, _)| *name == v).map(|&(_, prev)| prev);
            match env.get(v).or_else(introduced) {
                Some(bound) => bound == value,
                None => {
                    fresh.push((v, value));
                    true
                }
            }
        }
    }
}

/// Instantiate a head atom under an environment.
pub fn instantiate(atom: &Atom, env: &impl Bindings) -> Option<Tuple> {
    let loc = resolve_term(&atom.loc, env)?;
    let mut args = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        args.push(resolve_term(t, env)?);
    }
    Some(Tuple { table: atom.table.as_str().into(), loc, args })
}

fn resolve_term(term: &Term, env: &impl Bindings) -> Option<Value> {
    match term {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => env.get(v).cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ExecEvent;
    use mpr_ndlog::parse_program;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn fig2_engine() -> Engine {
        let p = parse_program(
            "fig2",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            materialize(WebLoadBalancer, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
            r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
            ",
        )
        .unwrap();
        Engine::new(&p).unwrap()
    }

    #[test]
    fn event_triggers_persistent_derivation() {
        let mut e = fig2_engine();
        let r = e
            .insert(Tuple::new("PacketIn", Value::str("C"), vec![v(2), v(80)]))
            .unwrap();
        // r5 fires (Prt:=1), then r7 replaces it (same key Hdr=80 at node 2).
        assert!(r.derivations >= 2);
        let fts = e.tuples("FlowTable");
        assert_eq!(fts.len(), 1);
        // Last write wins under key replacement: r7's Prt=2.
        assert_eq!(fts[0], Tuple::new("FlowTable", v(2), vec![v(80), v(2)]));
        // The PacketIn event itself was not stored.
        assert!(e.tuples("PacketIn").is_empty());
    }

    #[test]
    fn join_with_state_table() {
        let mut e = fig2_engine();
        e.insert(Tuple::new("WebLoadBalancer", Value::str("C"), vec![v(80), v(7)])).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(1), v(80)])).unwrap();
        let fts = e.tuples("FlowTable");
        assert_eq!(fts, vec![Tuple::new("FlowTable", v(1), vec![v(80), v(7)])]);
    }

    #[test]
    fn state_deletion_cascades() {
        let src = r"
            materialize(A, infinity, 1, keys(0)).
            materialize(B, infinity, 1, keys(0)).
            materialize(C, infinity, 1, keys(0)).
            r1 B(@N,X) :- A(@N,X), X > 0.
            r2 C(@N,X) :- B(@N,X), X > 1.
        ";
        let p = parse_program("casc", src).unwrap();
        let mut e = Engine::new(&p).unwrap();
        let a = Tuple::new("A", v(1), vec![v(5)]);
        e.insert(a.clone()).unwrap();
        assert!(e.contains(&Tuple::new("B", v(1), vec![v(5)])));
        assert!(e.contains(&Tuple::new("C", v(1), vec![v(5)])));
        let r = e.delete(&a);
        assert_eq!(r.disappeared.len(), 3);
        assert!(e.tuples("B").is_empty());
        assert!(e.tuples("C").is_empty());
    }

    #[test]
    fn support_counting_keeps_multiply_derived_tuples() {
        let src = r"
            materialize(A, infinity, 1, keys(0)).
            materialize(B, infinity, 1, keys(0)).
            materialize(Out, infinity, 1, keys(0)).
            r1 Out(@N,X) :- A(@N,X), X > 0.
            r2 Out(@N,X) :- B(@N,X), X > 0.
        ";
        let p = parse_program("sup", src).unwrap();
        let mut e = Engine::new(&p).unwrap();
        e.insert(Tuple::new("A", v(1), vec![v(5)])).unwrap();
        e.insert(Tuple::new("B", v(1), vec![v(5)])).unwrap();
        let out = Tuple::new("Out", v(1), vec![v(5)]);
        assert!(e.contains(&out));
        // Deleting one support keeps the tuple alive.
        e.delete(&Tuple::new("A", v(1), vec![v(5)]));
        assert!(e.contains(&out));
        e.delete(&Tuple::new("B", v(1), vec![v(5)]));
        assert!(!e.contains(&out));
    }

    #[test]
    fn multi_hop_recursion_reaches_fixpoint() {
        let src = r"
            materialize(Link, infinity, 1, keys(0)).
            materialize(Reach, infinity, 1, keys(0)).
            r1 Reach(@N,M) :- Link(@N,M), M != -1.
            r2 Reach(@N,M) :- Reach(@X,N2), Link(@N2,M), N2 == N2, N := N2, M != -1.
        ";
        // note: r2 is written oddly to exercise assigns; simpler transitive
        // closure below.
        let p = parse_program("tc", src).unwrap();
        assert!(Engine::new(&p).is_ok());

        let src = r"
            materialize(Link, infinity, 2, keys(0,1)).
            materialize(Reach, infinity, 2, keys(0,1)).
            r1 Reach(@C,X,Y) :- Link(@C,X,Y), X != Y.
            r2 Reach(@C,X,Z) :- Reach(@C,X,Y), Link(@C,Y,Z), X != Z.
        ";
        let p = parse_program("tc2", src).unwrap();
        let mut e = Engine::new(&p).unwrap();
        let c = Value::str("C");
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            e.insert(Tuple::new("Link", c.clone(), vec![v(a), v(b)])).unwrap();
        }
        let reach = e.tuples("Reach");
        // 1→2,1→3,1→4,2→3,2→4,3→4
        assert_eq!(reach.len(), 6);
    }

    #[test]
    fn send_receive_logged_for_remote_heads() {
        let mut e = fig2_engine();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(2), v(80)])).unwrap();
        let sends: Vec<_> = e
            .log()
            .events()
            .filter(|ev| matches!(ev, ExecEvent::Send { positive: true, .. }))
            .collect();
        assert!(!sends.is_empty(), "FlowTable install should ship C→switch");
    }

    #[test]
    fn provenance_recording_can_be_disabled() {
        let p = parse_program(
            "t",
            "materialize(A, infinity, 1, keys(0)).\nmaterialize(B, infinity, 1, keys(0)).\nr1 B(@N,X) :- A(@N,X), X > 0.",
        )
        .unwrap();
        let mut e = Engine::with_options(
            &p,
            Options { record_events: false, ..Options::default() },
        )
        .unwrap();
        e.insert(Tuple::new("A", v(1), vec![v(5)])).unwrap();
        assert!(e.log().is_empty());
        assert_eq!(e.log().records().len(), 0, "no lifetimes are kept with recording off");
        assert!(e.contains(&Tuple::new("B", v(1), vec![v(5)])));
        // What retraction reads survives: the cascade still runs.
        e.delete(&Tuple::new("A", v(1), vec![v(5)]));
        assert!(!e.contains(&Tuple::new("B", v(1), vec![v(5)])));
        assert!(e.log().is_empty());
    }

    /// A primary-key replacement after `noise` unrelated derivations:
    /// returns the derivation records `kill` looked at.
    fn records_visited_by_replacement(noise: i64) -> u64 {
        let p = parse_program(
            "t",
            r"
            materialize(Noise, infinity, 1, keys(0)).
            materialize(Other, infinity, 1, keys(0)).
            materialize(Src, infinity, 2, keys(0,1)).
            materialize(Pick, infinity, 2, keys(0)).
            materialize(Dep, infinity, 2, keys(0,1)).
            n1 Other(@N,X) :- Noise(@N,X).
            p1 Pick(@N,X,Y) :- Src(@N,X,Y).
            d1 Dep(@N,X,Y) :- Pick(@N,X,Y).
            ",
        )
        .unwrap();
        let mut e = Engine::new(&p).unwrap();
        for i in 0..noise {
            e.insert(Tuple::new("Noise", v(1), vec![v(i)])).unwrap();
        }
        e.insert(Tuple::new("Src", v(1), vec![v(7), v(1)])).unwrap();
        assert_eq!(e.records.len() as i64, noise + 2);
        let before = e.records_visited;
        e.insert(Tuple::new("Src", v(1), vec![v(7), v(2)])).unwrap();
        assert_eq!(e.tuples("Pick"), vec![Tuple::new("Pick", v(1), vec![v(7), v(2)])]);
        assert_eq!(e.tuples("Dep"), vec![Tuple::new("Dep", v(1), vec![v(7), v(2)])]);
        e.records_visited - before
    }

    #[test]
    fn kill_visits_only_the_dead_tuples_dependents() {
        // Evicting Pick(7,1) retracts Dep(7,1): one record, however many
        // derivations the engine has made (it used to walk all of them).
        assert_eq!(records_visited_by_replacement(100), 1);
        assert_eq!(records_visited_by_replacement(10_000), 1);
    }

    #[test]
    fn event_only_derivations_keep_no_record() {
        let mut e = fig2_engine();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(2), v(80)])).unwrap();
        assert!(e.total_derivations() >= 2);
        assert!(e.records.is_empty(), "a body of events can never retract its head");
        e.insert(Tuple::new("WebLoadBalancer", Value::str("C"), vec![v(80), v(7)])).unwrap();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(1), v(80)])).unwrap();
        assert_eq!(e.records.len(), 1, "r1 joins a state tuple");
    }

    #[test]
    fn derivation_limit_guards_runaway_rules() {
        // Infinite generator: each Out(k) derives Out(k+1).
        let src = r"
            materialize(Seed, infinity, 1, keys(0)).
            materialize(Out, infinity, 1, keys(0)).
            r1 Out(@N,X) :- Seed(@N,X), X > 0.
            r2 Out(@N,Y) :- Out(@N,X), X > 0, Y := X + 1.
        ";
        let p = parse_program("loop", src).unwrap();
        let mut e = Engine::with_options(
            &p,
            Options { max_derivations: 1000, ..Options::default() },
        )
        .unwrap();
        let err = e.insert(Tuple::new("Seed", v(1), vec![v(1)])).unwrap_err();
        assert_eq!(err, RuntimeError::DerivationLimit(1000));
    }

    #[test]
    fn integer_overflow_wraps_under_both_strategies() {
        let src = r"
            r1 B(@X,Z) :- A(@X,Y), Z := Y / -1.
            r2 M(@X,Z) :- A(@X,Y), Z := Y % -1.
        ";
        let p = parse_program("wrap", src).unwrap();
        for strategy in [EvalStrategy::Batch, EvalStrategy::Pipelined] {
            let mut e = Engine::with_options(&p, Options { strategy, ..Options::default() }).unwrap();
            e.insert(Tuple::new("A", v(1), vec![v(i64::MIN)])).unwrap();
            assert_eq!(e.tuples("B"), [Tuple::new("B", v(1), vec![v(i64::MIN)])], "{strategy}");
            assert_eq!(e.tuples("M"), [Tuple::new("M", v(1), vec![v(0)])], "{strategy}");
        }
    }

    #[test]
    fn compile_rejects_unbound_vars() {
        let p = parse_program("bad", "r1 B(@N,X) :- A(@N,X), Zz == 1.").unwrap();
        assert!(matches!(
            Engine::new(&p),
            Err(CompileError::UnboundSelectionVar { .. })
        ));
        let p = parse_program("bad2", "r1 B(@N,X) :- A(@N,X), X := Qq + 1.").unwrap();
        // X is bound by the body; Qq is not.
        assert!(matches!(Engine::new(&p), Err(CompileError::UnboundAssignVar { .. })));
    }

    /// Programs whose rule `bad` does not compile, and reads a table no
    /// tuple ever reaches — so no delta ever compiles it.
    fn programs_with_an_unreached_bad_rule() -> Vec<Program> {
        [
            "bad B(@N,X) :- Never(@N,X), X > 0, Zz == Aa.",
            "bad B(@N,X) :- Never(@N,Y), X := Qq + Y.",
        ]
        .iter()
        .map(|bad| {
            let src = format!("materialize(A, infinity, 1, keys(0)).\nok B(@N,X) :- A(@N,X).\n{bad}");
            parse_program("unreached", &src).unwrap()
        })
        .collect()
    }

    #[test]
    fn a_rule_no_delta_reaches_is_refused_as_compiling_it_would_refuse_it() {
        for p in programs_with_an_unreached_bad_rule() {
            let eager = compiled::CompiledRule::compile(&p.rules[1], &p.catalog).unwrap_err();
            for strategy in [EvalStrategy::Batch, EvalStrategy::Pipelined] {
                let built = Engine::with_options(&p, Options { strategy, ..Options::default() });
                assert_eq!(built.err(), Some(eager.clone()), "{}", p.rules[1]);
            }
        }
        let unbound = CompileError::UnboundSelectionVar { rule: "bad".into(), var: "Aa".into() };
        assert_eq!(Engine::new(&programs_with_an_unreached_bad_rule()[0]).err(), Some(unbound));
        // Of two bad rules, the first in program order is the one reported.
        let p = parse_program(
            "two",
            "first B(@N,X) :- Never(@N,X), X := Zz.\nsecond B(@N,X) :- Never(@N,X), Yy == 1.",
        )
        .unwrap();
        let first = CompileError::UnboundAssignVar { rule: "first".into(), var: "Zz".into() };
        assert_eq!(Engine::new(&p).err(), Some(first));
    }

    #[test]
    fn arity_mismatch_on_insert() {
        let p = parse_program("t", "materialize(A, infinity, 2, keys(0)).\nr1 B(@N,X) :- A(@N,X,Y), X > 0.").unwrap();
        let mut e = Engine::new(&p).unwrap();
        let err = e.insert(Tuple::new("A", v(1), vec![v(5)])).unwrap_err();
        assert!(matches!(err, RuntimeError::ArityMismatch { .. }));
    }

    #[test]
    fn a_program_that_breaks_its_declarations_is_refused() {
        // `keys(5)` of an arity-2 table would key `T` on its location
        // alone, so a second `T` at a node would replace the first.
        let p = parse_program("k", "materialize(T, infinity, 2, keys(5)).\nr1 B(@X,Y) :- T(@X,Y,Z).").unwrap();
        assert!(matches!(Engine::new(&p), Err(CompileError::InvalidProgram(m)) if m.contains("key column 5")));
        // Declared arity 2, used at 3: no insert `r1` could match is
        // accepted.
        let p = parse_program("a", "materialize(T, infinity, 2, keys(0)).\nr1 B(@X,Y,Z,W) :- T(@X,Y,Z,W).").unwrap();
        assert!(matches!(Engine::new(&p), Err(CompileError::InvalidProgram(m)) if m.contains("declared with arity 2")));
    }

    #[test]
    fn every_table_has_one_arity() {
        let p = parse_program("t", "r1 B(@X,Y) :- A(@X,Y).").unwrap();
        let mismatch = |table: &str| RuntimeError::ArityMismatch { table: table.into(), expected: 1, got: 2 };
        for strategy in [EvalStrategy::Batch, EvalStrategy::Pipelined] {
            let mut e = Engine::with_options(&p, Options { strategy, ..Options::default() }).unwrap();
            // `A`, undeclared, has the arity of the program's atoms over it …
            e.insert(Tuple::new("A", v(1), vec![v(2)])).unwrap();
            assert_eq!(e.insert(Tuple::new("A", v(1), vec![v(2), v(3)])), Err(mismatch("A")));
            // … and `Z`, which the program never names, that of its first
            // insert.
            e.insert(Tuple::new("Z", v(1), vec![v(2)])).unwrap();
            assert_eq!(e.insert(Tuple::new("Z", v(1), vec![v(2), v(3)])), Err(mismatch("Z")));
            assert_eq!(e.tuple_count(), 3, "A(1,2), B(1,2), Z(1,2) under {strategy}");
        }
    }

    #[test]
    fn log_records_full_lifecycle() {
        let mut e = fig2_engine();
        e.insert(Tuple::new("PacketIn", Value::str("C"), vec![v(2), v(80)])).unwrap();
        let log = e.log();
        assert!(log.events().any(|ev| matches!(ev, ExecEvent::InsertBase { .. })));
        assert!(log.events().any(|ev| matches!(ev, ExecEvent::Derive { .. })));
        assert!(log.events().any(|ev| matches!(ev, ExecEvent::Appear { .. })));
        // Event tuple has an instantaneous lifetime.
        let ev_rec = log.record(0);
        assert_eq!(ev_rec.kind, TupleKind::Event);
        assert_eq!(ev_rec.disappear, Some(ev_rec.appear));
    }

    #[test]
    fn strategy_display() {
        assert_eq!(EvalStrategy::Batch.to_string(), "batch");
        assert_eq!(EvalStrategy::Pipelined.to_string(), "pipelined");
        assert_eq!(Options::default().strategy, EvalStrategy::Batch);
    }
}
