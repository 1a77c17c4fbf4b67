//! Property test: the flow-table lookup — the first match in the table's
//! sorted entries — agrees with an exhaustive scan written against the
//! specification, on random tables, packets and mutation sequences.

use mpr_sdn::packet::{Field, Packet, Proto};
use mpr_sdn::{Action, FlowEntry, FlowTable, Match};
use proptest::prelude::*;

fn field() -> impl Strategy<Value = Field> {
    prop::sample::select(Field::ALL.to_vec())
}

fn rmatch() -> impl Strategy<Value = Match> {
    (
        prop::option::of(0i64..4),
        prop::collection::vec((field(), 0i64..100), 0..3),
    )
        .prop_map(|(in_port, fields)| {
            let mut m = Match::any();
            if let Some(p) = in_port {
                m = m.on_port(p);
            }
            for (f, v) in fields {
                m = m.with(f, v);
            }
            m
        })
}

/// The specification, by exhaustive scan: among the matching entries, the
/// highest priority, then the most specific, then the earliest installed.
fn lookup_reference<'t>(ft: &'t FlowTable, pkt: &Packet, in_port: i64) -> Option<&'t FlowEntry> {
    let mut best: Option<&FlowEntry> = None;
    for e in ft.iter().filter(|e| e.m.matches(pkt, in_port)) {
        if best.map_or(true, |b| (e.priority, e.m.specificity()) > (b.priority, b.m.specificity())) {
            best = Some(e);
        }
    }
    best
}

fn entry() -> impl Strategy<Value = FlowEntry> {
    (0i32..8, rmatch(), prop_oneof![
        (0i64..5).prop_map(Action::Output),
        Just(Action::Drop),
        Just(Action::Flood),
    ])
        .prop_map(|(prio, m, a)| FlowEntry::new(prio, m, vec![a]))
}

fn packet() -> impl Strategy<Value = Packet> {
    (
        any::<u64>(),
        0i64..100,
        0i64..100,
        0i64..100,
        prop::sample::select(vec![80i64, 53, 22, 99]),
        prop::sample::select(vec![Proto::Tcp, Proto::Udp, Proto::Icmp]),
    )
        .prop_map(|(seq, sip, dip, spt, dpt, proto)| Packet {
            seq,
            src_ip: sip,
            dst_ip: dip,
            src_port: spt,
            dst_port: dpt,
            proto,
            src_mac: sip,
            dst_mac: dip,
            payload: 100,
        })
}

/// A random mutation applied between lookups: install, replace, remove and
/// the crash wipe.
#[derive(Debug, Clone)]
enum Mutation {
    Install(FlowEntry),
    Replace(FlowEntry),
    Remove(Match),
    CrashWipe,
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        4 => entry().prop_map(Mutation::Install),
        2 => entry().prop_map(Mutation::Replace),
        1 => rmatch().prop_map(Mutation::Remove),
        1 => Just(Mutation::CrashWipe),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lookup_agrees_with_reference(entries in prop::collection::vec(entry(), 0..48), pkt in packet(), in_port in 0i64..4) {
        let mut ft = FlowTable::new();
        for e in entries {
            ft.install(e);
        }
        // Exact identity, ties included: the lookup must return the very
        // entry the oracle picks.
        prop_assert_eq!(ft.lookup(&pkt, in_port), lookup_reference(&ft, &pkt, in_port));
    }

    /// Specificity ties with different actions: the tie-break (earliest
    /// installed) must survive the sort.
    #[test]
    fn specificity_ties_resolve_to_earliest_installed(
        n in 8usize..20,
        pkt in packet(),
        in_port in 0i64..4,
    ) {
        let mut ft = FlowTable::new();
        // All entries share (priority, specificity) but differ in action.
        for i in 0..n {
            ft.install(FlowEntry::new(5, Match::any(), vec![Action::Output(i as i64)]));
        }
        let hit = ft.lookup(&pkt, in_port).expect("match-all entry matches");
        prop_assert_eq!(&hit.actions, &vec![Action::Output(0)]);
        prop_assert_eq!(ft.lookup(&pkt, in_port), lookup_reference(&ft, &pkt, in_port));
    }

    /// Interleaved mutations (install / replace / remove / crash wipe) keep
    /// the entries in match order: after every step, lookup still equals
    /// the oracle.
    #[test]
    fn lookup_agrees_through_mutation_sequences(
        seed in prop::collection::vec(entry(), 0..24),
        muts in prop::collection::vec(mutation(), 1..12),
        pkts in prop::collection::vec((packet(), 0i64..4), 1..6),
    ) {
        let mut ft = FlowTable::new();
        for e in seed {
            ft.install(e);
        }
        for m in muts {
            match m {
                Mutation::Install(e) => ft.install(e),
                Mutation::Replace(e) => ft.replace(e),
                Mutation::Remove(m) => { ft.remove(&m); }
                Mutation::CrashWipe => ft.clear(),
            }
            for (pkt, in_port) in &pkts {
                prop_assert_eq!(ft.lookup(pkt, *in_port), lookup_reference(&ft, pkt, *in_port));
            }
        }
    }

    #[test]
    fn install_is_idempotent_for_same_entry(e in entry(), pkt in packet(), in_port in 0i64..4) {
        let mut ft = FlowTable::new();
        ft.install(e.clone());
        let first = ft.lookup(&pkt, in_port).cloned();
        ft.install(e);
        prop_assert_eq!(ft.len(), 1);
        prop_assert_eq!(ft.lookup(&pkt, in_port).cloned(), first);
    }
}
