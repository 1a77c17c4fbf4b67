//! OpenFlow-style flow tables: priority-ordered wildcard matching.
//!
//! Lookup is served by a hash index keyed on *constrained-field
//! signatures*: entries are grouped by which dimensions they constrain
//! (ingress port + header-field list), and within a group a hash map goes
//! from the constrained values straight to the best entry. A packet probes
//! one bucket per signature group — there are as many groups as distinct
//! match shapes in the table (a handful), not as many as entries — and the
//! winner across groups is the entry the priority-sorted linear scan would
//! have found. `lookup_reference` retains the exhaustive scan as the
//! oracle the property tests compare against.
//!
//! [`FlowTables`] is the flow tables of a whole network: a sparse map that
//! holds a [`FlowTable`] only for switches something was installed on.

use crate::packet::{Field, Packet};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A match specification: every constrained field must equal the packet's
/// value; unconstrained fields are wildcards.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Match {
    /// Ingress port constraint.
    pub in_port: Option<i64>,
    /// Header field constraints as `(field, value)` pairs.
    pub fields: Vec<(Field, i64)>,
}

impl Match {
    /// Match-all.
    pub fn any() -> Match {
        Match::default()
    }

    /// Add a header-field constraint (builder style).
    pub fn with(mut self, f: Field, v: i64) -> Match {
        self.fields.push((f, v));
        self
    }

    /// Add an ingress-port constraint (builder style).
    pub fn on_port(mut self, p: i64) -> Match {
        self.in_port = Some(p);
        self
    }

    /// Does the packet (arriving on `in_port`) satisfy the match?
    pub fn matches(&self, pkt: &Packet, in_port: i64) -> bool {
        if let Some(p) = self.in_port {
            if p != in_port {
                return false;
            }
        }
        self.fields.iter().all(|(f, v)| pkt.field(*f) == *v)
    }

    /// Number of constrained fields (used for specificity ordering).
    pub fn specificity(&self) -> usize {
        self.fields.len() + usize::from(self.in_port.is_some())
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.in_port.is_none() && self.fields.is_empty() {
            return f.write_str("*");
        }
        let mut first = true;
        if let Some(p) = self.in_port {
            write!(f, "in_port={p}")?;
            first = false;
        }
        for (field, v) in &self.fields {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}={v}", field.short())?;
            first = false;
        }
        Ok(())
    }
}

/// A flow action. All variants are scalar, so actions copy for free —
/// the simulator stages them through a reusable buffer instead of cloning
/// the owning entry per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Forward out of a port.
    Output(i64),
    /// Drop the packet.
    Drop,
    /// Punt to the controller (explicit).
    Controller,
    /// Flood out of every port except the ingress.
    Flood,
    /// Rewrite a header field, then continue with the next action.
    Modify(Field, i64),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output(p) => write!(f, "output:{p}"),
            Action::Drop => f.write_str("drop"),
            Action::Controller => f.write_str("controller"),
            Action::Flood => f.write_str("flood"),
            Action::Modify(field, v) => write!(f, "set {}={v}", field.short()),
        }
    }
}

/// One flow entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowEntry {
    /// Priority (higher wins).
    pub priority: i32,
    /// Match specification.
    pub m: Match,
    /// Action list, applied in order.
    pub actions: Vec<Action>,
}

impl FlowEntry {
    /// Build an entry.
    pub fn new(priority: i32, m: Match, actions: Vec<Action>) -> Self {
        FlowEntry { priority, m, actions }
    }
}

impl fmt::Display for FlowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} -> ", self.priority, self.m)?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Linear scan beats hashing for tiny tables (the common reactive case:
/// a handful of entries per switch); the index only engages above this.
const INDEX_MIN_ENTRIES: usize = 8;

/// Probe keys up to this many dimensions use a stack buffer (a `Match`
/// rarely constrains more than in_port + five header fields).
const KEY_STACK_DIMS: usize = 8;

/// One signature group: every indexed entry that constrains exactly
/// `(has_in_port, fields)` in this order, bucketed by constrained values.
struct SigGroup {
    has_in_port: bool,
    fields: Vec<Field>,
    /// Constrained values (`[in_port?, field values...]`) → index of the
    /// best entry with those values, i.e. the smallest index in the
    /// priority/specificity-sorted `entries` vec.
    buckets: HashMap<Vec<i64>, usize>,
}

/// The lazily (re)built signature index. `None` means stale: every
/// mutation resets it, the next lookup rebuilds it from `entries`.
/// Interior mutability keeps `lookup(&self)` shared; the `RwLock` (rather
/// than a `RefCell`) keeps `FlowTable: Sync`.
#[derive(Default)]
struct LookupIndex {
    built: RwLock<Option<Vec<SigGroup>>>,
}

impl LookupIndex {
    fn invalidate(&mut self) {
        match self.built.get_mut() {
            Ok(slot) => *slot = None,
            Err(poisoned) => *poisoned.into_inner() = None,
        }
    }
}

fn build_index(entries: &[FlowEntry]) -> Vec<SigGroup> {
    let mut groups: Vec<SigGroup> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let has_in_port = e.m.in_port.is_some();
        let gi = groups
            .iter()
            .position(|g| {
                g.has_in_port == has_in_port
                    && g.fields.len() == e.m.fields.len()
                    && g.fields.iter().zip(e.m.fields.iter()).all(|(f, (ef, _))| f == ef)
            })
            .unwrap_or_else(|| {
                groups.push(SigGroup {
                    has_in_port,
                    fields: e.m.fields.iter().map(|(f, _)| *f).collect(),
                    buckets: HashMap::new(),
                });
                groups.len() - 1
            });
        let mut key: Vec<i64> = Vec::with_capacity(e.m.specificity());
        if let Some(p) = e.m.in_port {
            key.push(p);
        }
        key.extend(e.m.fields.iter().map(|(_, v)| *v));
        // Entries are scanned best-first, so the first write per key is
        // the winner for that exact (signature, values) cell.
        groups[gi].buckets.entry(key).or_insert(i);
    }
    groups
}

/// Best (= smallest) entry index across all signature groups for `pkt`.
fn probe_index(groups: &[SigGroup], pkt: &Packet, in_port: i64) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut stack = [0i64; KEY_STACK_DIMS];
    for g in groups {
        let dims = g.fields.len() + usize::from(g.has_in_port);
        let hit = if dims <= KEY_STACK_DIMS {
            let mut k = 0;
            if g.has_in_port {
                stack[0] = in_port;
                k = 1;
            }
            for f in &g.fields {
                stack[k] = pkt.field(*f);
                k += 1;
            }
            g.buckets.get(&stack[..dims])
        } else {
            let mut key: Vec<i64> = Vec::with_capacity(dims);
            if g.has_in_port {
                key.push(in_port);
            }
            key.extend(g.fields.iter().map(|f| pkt.field(*f)));
            g.buckets.get(key.as_slice())
        };
        if let Some(&i) = hit {
            best = Some(best.map_or(i, |b| b.min(i)));
        }
    }
    best
}

/// A switch's flow table.
#[derive(Default)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    index: LookupIndex,
    use_reference: bool,
}

impl Clone for FlowTable {
    fn clone(&self) -> Self {
        // The clone starts with a stale index and rebuilds on first lookup.
        FlowTable {
            entries: self.entries.clone(),
            index: LookupIndex::default(),
            use_reference: self.use_reference,
        }
    }
}

impl fmt::Debug for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowTable").field("entries", &self.entries).finish()
    }
}

impl Serialize for FlowTable {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("entries".to_string(), self.entries.to_value())])
    }
}

impl Deserialize for FlowTable {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = match v {
            serde::Value::Object(m) => m,
            other => return serde::__private::unexpected("FlowTable", "object", other),
        };
        Ok(FlowTable {
            entries: Deserialize::from_value(serde::__private::field(obj, "FlowTable", "entries")?)?,
            index: LookupIndex::default(),
            use_reference: false,
        })
    }
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install an entry. An entry with an identical match and priority
    /// already present is kept (first install wins) — the controller proxy
    /// deduplicates redundant `FlowMod`s, so the first rule to fire for a
    /// flow owns its entry. Use [`FlowTable::replace`] for modify
    /// semantics.
    pub fn install(&mut self, entry: FlowEntry) {
        if self
            .entries
            .iter()
            .any(|e| e.m == entry.m && e.priority == entry.priority)
        {
            return;
        }
        self.entries.push(entry);
        // Highest priority first; ties broken by specificity, then
        // insertion order (stable sort).
        self.entries
            .sort_by(|a, b| b.priority.cmp(&a.priority).then(b.m.specificity().cmp(&a.m.specificity())));
        self.index.invalidate();
    }

    /// Install with modify semantics: an entry with an identical match and
    /// priority is overwritten.
    pub fn replace(&mut self, entry: FlowEntry) {
        self.entries.retain(|e| !(e.m == entry.m && e.priority == entry.priority));
        self.index.invalidate();
        self.install(entry);
    }

    /// Remove entries whose match equals `m` exactly.
    pub fn remove(&mut self, m: &Match) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| &e.m != m);
        self.index.invalidate();
        before - self.entries.len()
    }

    /// Remove everything (a switch crash wipes its table through here).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.invalidate();
    }

    /// Force every lookup through [`FlowTable::lookup_reference`] — the
    /// differential-testing hook that lets a whole simulation run on the
    /// oracle path for bit-identical comparison against the index.
    pub fn set_reference_mode(&mut self, on: bool) {
        self.use_reference = on;
    }

    /// Best-match lookup: highest priority, then most specific, then
    /// earliest installed. Served by the signature index for large tables
    /// and a short linear scan for small ones; both agree exactly with
    /// [`FlowTable::lookup_reference`].
    pub fn lookup(&self, pkt: &Packet, in_port: i64) -> Option<&FlowEntry> {
        if self.use_reference {
            return self.lookup_reference(pkt, in_port);
        }
        if self.entries.len() < INDEX_MIN_ENTRIES {
            return self.entries.iter().find(|e| e.m.matches(pkt, in_port));
        }
        {
            let guard = self.index.built.read().unwrap_or_else(|p| p.into_inner());
            if let Some(groups) = guard.as_ref() {
                return probe_index(groups, pkt, in_port).map(|i| &self.entries[i]);
            }
        }
        let groups = build_index(&self.entries);
        let best = probe_index(&groups, pkt, in_port);
        let mut guard = self.index.built.write().unwrap_or_else(|p| p.into_inner());
        if guard.is_none() {
            *guard = Some(groups);
        }
        drop(guard);
        best.map(|i| &self.entries[i])
    }

    /// Reference lookup by exhaustive scan, written against the behavioral
    /// spec directly: among matching entries pick the highest priority,
    /// then the most specific, then the earliest installed. The property
    /// tests and the differential simulator runs hold [`FlowTable::lookup`]
    /// (linear or indexed) bit-identical to this oracle.
    pub fn lookup_reference(&self, pkt: &Packet, in_port: i64) -> Option<&FlowEntry> {
        let mut best: Option<&FlowEntry> = None;
        for e in &self.entries {
            if !e.m.matches(pkt, in_port) {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    (e.priority, e.m.specificity()) > (b.priority, b.m.specificity())
                }
            };
            if better {
                best = Some(e);
            }
        }
        best
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in match order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    /// Do the two tables hold the same entries *in the same order* (length
    /// first)? The entry vector is all a table's behaviour depends on —
    /// match order answers [`Self::lookup`], and [`Self::install`] derives
    /// the next vector from this one and the entry alone — so tables equal
    /// in order answer alike now and after any equal sequence of installs.
    /// Tables equal only as *sets* do not: entries of one priority and
    /// specificity sit in install order, and the earlier one wins a packet
    /// both match.
    pub fn same_entries_in_order(&self, other: &FlowTable) -> bool {
        self.entries == other.entries
    }
}

/// Call `install(switch, entry)` for every shortest-path
/// `DstIp → Output` route of every host — the "proactively configured
/// core" of §5.2. Entries get priority 1 so reactive (priority ≥ 10)
/// policies override them.
pub fn proactive_routes(topo: &Topology, mut install: impl FnMut(i64, FlowEntry)) {
    for &h in &topo.hosts {
        for (&sw, &port) in topo.routes_to(h).iter() {
            install(
                sw,
                FlowEntry::new(1, Match::any().with(Field::DstIp, h), vec![Action::Output(port)]),
            );
        }
    }
}

/// The flow tables of a network, stored sparsely: a [`FlowTable`] exists
/// only for switches something was installed on, so the state is
/// proportional to what a run touches, not to the switch count.
///
/// The domain is the topology's switch set. A lookup on a known switch
/// with no table is a miss — exactly what an empty table answers — so an
/// absent table and an empty one are indistinguishable to the simulator.
/// An install on a switch the topology does not know is ignored: a
/// `FlowMod` addressed to a nonexistent switch has nowhere to land.
pub struct FlowTables {
    topo: Arc<Topology>,
    tables: BTreeMap<i64, FlowTable>,
    /// Reference-lookup mode is a property of the set, so tables
    /// materialised after [`Self::set_reference_mode`] inherit it.
    reference: bool,
    reference_lookups: AtomicU64,
}

impl FlowTables {
    /// No table materialised; every known switch misses.
    pub fn new(topo: Arc<Topology>) -> Self {
        FlowTables {
            topo,
            tables: BTreeMap::new(),
            reference: false,
            reference_lookups: AtomicU64::new(0),
        }
    }

    /// The table of `switch`, if one was materialised.
    pub fn get(&self, switch: &i64) -> Option<&FlowTable> {
        self.tables.get(switch)
    }

    /// Best-match lookup at `switch`; a switch without a table misses.
    pub fn lookup(&self, switch: i64, pkt: &Packet, in_port: i64) -> Option<&FlowEntry> {
        let table = self.tables.get(&switch)?;
        if self.reference {
            self.reference_lookups.fetch_add(1, Ordering::Relaxed);
        }
        table.lookup(pkt, in_port)
    }

    /// Install `entry` at `switch` ([`FlowTable::install`] semantics),
    /// materialising the table on first use. Unknown switches are ignored.
    pub fn install(&mut self, switch: i64, entry: FlowEntry) {
        if !self.topo.switches.contains(&switch) {
            return;
        }
        let reference = self.reference;
        self.tables
            .entry(switch)
            .or_insert_with(|| {
                let mut t = FlowTable::new();
                t.set_reference_mode(reference);
                t
            })
            .install(entry);
    }

    /// Install [`proactive_routes`] for this network.
    pub fn install_proactive_routes(&mut self) {
        let topo = self.topo.clone();
        proactive_routes(&topo, |sw, entry| self.install(sw, entry));
    }

    /// Wipe the table of `switch` (a switch crash).
    pub fn clear(&mut self, switch: i64) {
        self.tables.remove(&switch);
    }

    /// Force every lookup, on present and future tables, through
    /// [`FlowTable::lookup_reference`] (see
    /// [`FlowTable::set_reference_mode`]).
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference = on;
        for t in self.tables.values_mut() {
            t.set_reference_mode(on);
        }
    }

    /// How many [`Self::lookup`]s the reference oracle answered — the
    /// differential tests' proof that the oracle actually ran.
    pub fn reference_lookups(&self) -> u64 {
        self.reference_lookups.load(Ordering::Relaxed)
    }

    /// Number of tables materialised (switches with at least one install
    /// since their last wipe).
    pub fn materialised(&self) -> usize {
        self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ports;

    #[test]
    fn priority_and_wildcard_matching() {
        let mut ft = FlowTable::new();
        ft.install(FlowEntry::new(1, Match::any(), vec![Action::Drop]));
        ft.install(FlowEntry::new(
            10,
            Match::any().with(Field::DstPort, ports::HTTP),
            vec![Action::Output(2)],
        ));
        let http = Packet::http(1, 5, 9);
        let dns = Packet::dns(2, 5, 9);
        assert_eq!(ft.lookup(&http, 1).unwrap().actions, vec![Action::Output(2)]);
        assert_eq!(ft.lookup(&dns, 1).unwrap().actions, vec![Action::Drop]);
    }

    #[test]
    fn in_port_constraints() {
        let mut ft = FlowTable::new();
        ft.install(FlowEntry::new(
            5,
            Match::any().on_port(3),
            vec![Action::Output(1)],
        ));
        let p = Packet::http(1, 5, 9);
        assert!(ft.lookup(&p, 3).is_some());
        assert!(ft.lookup(&p, 2).is_none());
    }

    #[test]
    fn install_keeps_first_replace_overwrites() {
        let mut ft = FlowTable::new();
        let m = Match::any().with(Field::DstPort, 80);
        ft.install(FlowEntry::new(5, m.clone(), vec![Action::Output(1)]));
        ft.install(FlowEntry::new(5, m.clone(), vec![Action::Output(2)]));
        assert_eq!(ft.len(), 1);
        // First install wins.
        assert_eq!(
            ft.lookup(&Packet::http(1, 5, 9), 1).unwrap().actions,
            vec![Action::Output(1)]
        );
        // Modify semantics overwrite.
        ft.replace(FlowEntry::new(5, m.clone(), vec![Action::Output(2)]));
        assert_eq!(ft.len(), 1);
        assert_eq!(
            ft.lookup(&Packet::http(1, 5, 9), 1).unwrap().actions,
            vec![Action::Output(2)]
        );
        assert_eq!(ft.remove(&m), 1);
        assert!(ft.is_empty());
    }

    #[test]
    fn specificity_breaks_priority_ties() {
        let mut ft = FlowTable::new();
        ft.install(FlowEntry::new(5, Match::any(), vec![Action::Drop]));
        ft.install(FlowEntry::new(
            5,
            Match::any().with(Field::DstPort, 80).with(Field::SrcIp, 5),
            vec![Action::Output(9)],
        ));
        let p = Packet::http(1, 5, 9);
        assert_eq!(ft.lookup(&p, 1).unwrap().actions, vec![Action::Output(9)]);
    }

    #[test]
    fn equality_in_order_tells_apart_what_a_tie_tells_apart() {
        let by_port = FlowEntry::new(5, Match::any().with(Field::DstPort, 80), vec![Action::Output(1)]);
        let by_src = FlowEntry::new(5, Match::any().with(Field::SrcIp, 5), vec![Action::Output(2)]);
        let table = |entries: [&FlowEntry; 2]| {
            let mut ft = FlowTable::new();
            entries.into_iter().for_each(|e| ft.install(e.clone()));
            ft
        };
        let (a, b) = (table([&by_port, &by_src]), table([&by_src, &by_port]));
        // The same two entries, and a packet both match goes two ways.
        let p = Packet::http(1, 5, 9);
        assert_eq!(a.lookup(&p, 0), Some(&by_port));
        assert_eq!(b.lookup(&p, 0), Some(&by_src));
        assert!(!a.same_entries_in_order(&b));
        assert!(a.same_entries_in_order(&table([&by_port, &by_src])));
        assert!(!a.same_entries_in_order(&FlowTable::new()));
        // The lookup index and the reference flag are not part of it.
        let mut c = a.clone();
        c.set_reference_mode(true);
        assert!(a.same_entries_in_order(&c));
    }

    #[test]
    fn fast_path_agrees_with_reference() {
        let mut ft = FlowTable::new();
        ft.install(FlowEntry::new(1, Match::any(), vec![Action::Drop]));
        ft.install(FlowEntry::new(7, Match::any().with(Field::SrcIp, 5), vec![Action::Output(1)]));
        ft.install(FlowEntry::new(7, Match::any().with(Field::DstPort, 80).on_port(2), vec![Action::Output(3)]));
        for (pkt, port) in [
            (Packet::http(1, 5, 9), 2),
            (Packet::http(2, 6, 9), 2),
            (Packet::dns(3, 5, 9), 1),
            (Packet::icmp(4, 0, 0), 9),
        ] {
            assert_eq!(ft.lookup(&pkt, port), ft.lookup_reference(&pkt, port));
        }
    }

    #[test]
    fn flow_tables_materialise_on_install_only() {
        let mut tables = FlowTables::new(Arc::new(crate::topology::fig1()));
        let http = Packet::http(1, 5, 9);
        let entry = FlowEntry::new(10, Match::any().with(Field::DstPort, 80), vec![Action::Drop]);
        // No table yet: a known switch misses, like an empty table.
        assert!(tables.get(&1).is_none());
        assert!(tables.lookup(1, &http, 0).is_none());
        assert_eq!(tables.materialised(), 0);
        tables.install(1, entry.clone());
        tables.install(99, entry.clone()); // not in the topology: ignored
        assert_eq!(tables.materialised(), 1);
        assert!(tables.get(&99).is_none());
        assert_eq!(tables.lookup(1, &http, 0), Some(&entry));
        assert!(tables.lookup(2, &http, 0).is_none());
        // A crash wipe leaves the switch as it started.
        tables.clear(1);
        assert!(tables.lookup(1, &http, 0).is_none());
        assert_eq!(tables.materialised(), 0);
    }

    #[test]
    fn reference_mode_reaches_tables_materialised_later() {
        let mut tables = FlowTables::new(Arc::new(crate::topology::fig1()));
        let http = Packet::http(1, 5, 9);
        let entry = FlowEntry::new(10, Match::any(), vec![Action::Output(1)]);
        tables.install(1, entry.clone());
        tables.lookup(1, &http, 0);
        assert_eq!(tables.reference_lookups(), 0);
        tables.set_reference_mode(true);
        tables.install(2, entry.clone());
        assert_eq!(tables.lookup(1, &http, 0), Some(&entry));
        assert_eq!(tables.lookup(2, &http, 0), Some(&entry));
        assert!(tables.lookup(3, &http, 0).is_none()); // no table, no oracle
        assert_eq!(tables.reference_lookups(), 2);
        assert!(tables.get(&2).is_some_and(|t| t.use_reference));
    }

    #[test]
    fn display_renders_entries() {
        let e = FlowEntry::new(
            5,
            Match::any().with(Field::DstPort, 80).on_port(1),
            vec![Action::Modify(Field::DstIp, 9), Action::Output(2)],
        );
        assert_eq!(e.to_string(), "[5] in_port=1,Dpt=80 -> set Dip=9,output:2");
        assert_eq!(Match::any().to_string(), "*");
    }
}
