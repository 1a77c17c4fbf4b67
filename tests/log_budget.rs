//! What history costs, pinned: bytes per packet-in by the log's own count,
//! and rows read per explanation by the log's own work counter. Counts and
//! byte totals, not timings, so they cannot flake.
//!
//! The stream is the benchmark's `packetin-stream` in small: the Q1
//! controller fed a seeded campus trace as packet-ins at each client's
//! ingress switch.

mod common;

use sdn_meta_repair::runtime::Options;
use sdn_meta_repair::sdn::controller::{Controller, NdlogController};

const PACKET_INS: usize = 10_000;

fn q1_stream(record_events: bool) -> NdlogController {
    let mut ctrl = common::q1_controller(Options { record_events, ..Options::default() });
    let mut replies = Vec::new();
    for msg in common::q1_packet_ins(PACKET_INS) {
        replies.clear();
        ctrl.on_packet_in(&msg, &mut replies);
    }
    ctrl
}

#[test]
fn recorded_history_stays_under_400_bytes_per_packet_in() {
    let ctrl = q1_stream(true);
    let log = ctrl.exec_log();
    assert!(log.records().len() >= PACKET_INS, "one instance per packet-in at least");
    let per_packet = log.heap_bytes() / PACKET_INS as u64;
    let stored = log.storage_bytes() / PACKET_INS as u64;
    eprintln!("{stored} B stored, {per_packet} B of heap per packet-in");
    // 108 B stored, under the paper's 120 B entry (§5.4): per packet-in,
    // one 8 B instance row and its 24 B lifetime, the inserted event's one
    // 32 B row, 1.04 derivation rows that carry their shipment, and 1.4
    // body ids; 170 B of heap with the columns' slack. A row per event
    // stored 239 B.
    assert!(stored <= 120, "{stored} B of history stored per packet-in");
    assert!(per_packet <= 196, "{per_packet} B of log per packet-in");
    assert!(log.storage_bytes() <= log.heap_bytes());

    // Explaining one flow entry reads rows in proportion to its tree (the
    // entry's own derivations and their packet-ins), not to the log.
    #[cfg(debug_assertions)]
    {
        use sdn_meta_repair::provenance::explain_exist;
        use sdn_meta_repair::runtime::{log::rows_visited, TupleKind};
        let entries: Vec<sdn_meta_repair::ndlog::Tuple> = log
            .records()
            .filter(|r| r.kind == TupleKind::Derived && r.disappear.is_none())
            .map(|r| r.tuple.clone())
            .collect();
        let mut smallest = usize::MAX;
        for entry in &entries {
            let before = rows_visited();
            let tree = explain_exist(log, entry, ctrl.engine().now()).expect("the entry is live");
            let visited = (rows_visited() - before) as usize;
            assert!(visited <= tree.size(), "{visited} rows read for a tree of {}", tree.size());
            smallest = smallest.min(visited);
        }
        assert!(smallest * 20 < log.len(), "{smallest} rows read of a log of {}", log.len());
    }
}

#[test]
fn a_repeated_packet_in_is_answered_from_the_step_memo() {
    // The stream repeats 12 distinct events. A repeat at an unchanged
    // state is replayed rather than evaluated; each of the 7 flow entries
    // the stream installs empties the memo, and an event's first
    // occurrence is never filed. So 35 steps are evaluated, all among the
    // first 340 packet-ins, and the hits' share only grows with the stream
    // (99.65 % here, 99.99 % over the benchmark's 250 000).
    for record_events in [true, false] {
        let ctrl = q1_stream(record_events);
        let (steps, hits, unheard) = (ctrl.engine().steps(), ctrl.engine().memo_hits(), ctrl.engine().unheard());
        eprintln!("recording {record_events}: {steps} steps, {hits} memo hits, {unheard} unheard");
        assert_eq!(steps + hits + unheard, PACKET_INS as u64, "every packet-in is a step, a hit or unheard");
        assert!(steps <= 40, "{steps} steps evaluated of {PACKET_INS} packet-ins");
    }
}

#[test]
fn recording_off_retains_at_most_64_bytes_per_packet_in() {
    let ctrl = q1_stream(false);
    let log = ctrl.exec_log();
    assert!(log.is_empty() && log.records().len() == 0);
    let per_packet = log.heap_bytes() / PACKET_INS as u64;
    // One 8 B instance row per packet-in (16 B with the column's slack);
    // the owning layout kept a cloned `Tuple` per instance regardless.
    assert!(per_packet <= 64, "{per_packet} B of log per packet-in with recording off");
}
