//! OpenFlow-style flow tables: priority-ordered wildcard matching.
//!
//! A table keeps its entries sorted best first — highest priority, then
//! most specific, then earliest installed — so a lookup is the first entry
//! that matches. The tables a reactive controller fills hold a handful of
//! entries, which a scan answers as fast as an index would.
//! `tests/prop_flowtable.rs` holds the scan to the exhaustive
//! specification.
//!
//! [`FlowTables`] is the flow tables of a whole network: a sparse map that
//! holds a [`FlowTable`] only for switches something was installed on.

use crate::packet::{Field, Packet};
use crate::topology::Topology;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A match specification: every constrained field must equal the packet's
/// value; unconstrained fields are wildcards.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// A switch's flow table: its entries in match order.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
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
    }

    /// Install with modify semantics: an entry with an identical match and
    /// priority is overwritten.
    pub fn replace(&mut self, entry: FlowEntry) {
        self.entries.retain(|e| !(e.m == entry.m && e.priority == entry.priority));
        self.install(entry);
    }

    /// Remove entries whose match equals `m` exactly.
    pub fn remove(&mut self, m: &Match) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| &e.m != m);
        before - self.entries.len()
    }

    /// Remove everything (a switch crash wipes its table through here).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Best-match lookup: highest priority, then most specific, then
    /// earliest installed — the first matching entry in match order.
    pub fn lookup(&self, pkt: &Packet, in_port: i64) -> Option<&FlowEntry> {
        self.entries.iter().find(|e| e.m.matches(pkt, in_port))
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
///
/// It counts the installs that add an entry, whoever installs — the
/// simulator's injection memo holds while the count stands — and keeps the
/// fields any entry ever matched on, which are the fields a lookup can read.
pub struct FlowTables {
    topo: Arc<Topology>,
    tables: BTreeMap<i64, FlowTable>,
    installs: u64,
    matched: [bool; Field::ALL.len()],
}

impl FlowTables {
    /// No table materialised; every known switch misses.
    pub fn new(topo: Arc<Topology>) -> Self {
        FlowTables { topo, tables: BTreeMap::new(), installs: 0, matched: [false; Field::ALL.len()] }
    }

    /// The table of `switch`, if one was materialised.
    pub fn get(&self, switch: &i64) -> Option<&FlowTable> {
        self.tables.get(switch)
    }

    /// Best-match lookup at `switch`; a switch without a table misses.
    pub fn lookup(&self, switch: i64, pkt: &Packet, in_port: i64) -> Option<&FlowEntry> {
        self.tables.get(&switch)?.lookup(pkt, in_port)
    }

    /// Install `entry` at `switch` ([`FlowTable::install`] semantics),
    /// materialising the table on first use. Unknown switches are ignored.
    pub fn install(&mut self, switch: i64, entry: FlowEntry) {
        if !self.topo.switches.contains(&switch) {
            return;
        }
        for (f, _) in &entry.m.fields {
            self.matched[*f as usize] = true;
        }
        let table = self.tables.entry(switch).or_default();
        let before = table.len();
        table.install(entry);
        self.installs += u64::from(table.len() != before);
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

    /// How many installs added an entry to a table. A wipe is not counted:
    /// only a fault plan's crash wipes, and the memo stands aside under one.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Per [`Field::ALL`] entry, whether any entry installed so far matches
    /// on it.
    pub fn matched_fields(&self) -> [bool; Field::ALL.len()] {
        self.matched
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
        assert!(a.same_entries_in_order(&a.clone()));
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
