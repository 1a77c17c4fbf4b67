//! What a topology costs, in bytes, as a count that cannot flake: the
//! `k = 90` fat-tree — the benchmark's `fabric-10k` network before the Q1
//! graft — against a budget per directed half-link and per node. The map
//! layout it replaced measured ~95 B per half-link (70 MB for this
//! fabric); the budget here admits 13.2 MB and the layout uses 9.7.

use mpr_sdn::topology::{fat_tree, FabricParams};

#[test]
fn ten_thousand_switch_fabric_fits_its_byte_budget() {
    let params = FabricParams::with_total_switches(9_995);
    assert_eq!(params.arity(), 90);
    let t = fat_tree(&params);
    assert_eq!((t.switches.len(), t.hosts.len(), t.link_count()), (10_125, 4_050, 368_550));

    let (nodes, half_links) = ((10_125 + 4_050) as u64, 2 * 368_550);
    let budget = 16 * half_links + 96 * nodes;
    assert!(t.heap_bytes() <= budget, "{} B over a budget of {budget} B", t.heap_bytes());
    // Every table is sized exactly: 12 B per half-link, and per node a
    // 48 B row plus 12 B in its id column.
    assert_eq!(t.heap_bytes(), 12 * half_links + 60 * nodes);

    // A clone holds the same links in no more bytes.
    let clone = t.clone();
    assert!(clone.heap_bytes() <= t.heap_bytes(), "{} > {}", clone.heap_bytes(), t.heap_bytes());
    assert!(clone.all_links().eq(t.all_links()));
}
