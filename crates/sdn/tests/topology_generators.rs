//! Generators pinned link for link. `fat_tree` / `fat_tree_into` write
//! every adjacency slice by arithmetic; the oracle here is the
//! construction they replaced — `add_switch` / `add_host` / `connect`, one
//! link at a time — and the two must agree on every link, every port and
//! on what `connect` hands out afterwards. Digests taken at the commit
//! before the dense layout pin `all_links()` itself (order included), so
//! a slip in the shared `connect` path cannot hide on both sides.

use mpr_sdn::topology::{
    campus, fabric_ids, fat_tree, fat_tree_into, CampusParams, FabricParams, NodeRef, Topology,
};
use std::collections::BTreeSet;

/// The incremental fat-tree: what `fat_tree_into` was before it computed
/// ports, here over any starting topology and switch-id offset.
fn fat_tree_by_connect(t: &mut Topology, params: &FabricParams, switch_base: i64) {
    let k = params.arity();
    let half = (k / 2) as i64;
    let core_n = half * half;
    let switch = |native: i64| NodeRef::Switch(switch_base + native);
    for c in 1..=core_n {
        t.add_switch(switch_base + c);
    }
    let agg_id = |pod: i64, i: i64| core_n + pod * half + i + 1;
    let edge_id = |pod: i64, j: i64| core_n + (k as i64) * half + pod * half + j + 1;
    let mut host_id = fabric_ids::HOST_BASE;
    for pod in 0..k as i64 {
        for i in 0..half {
            t.add_switch(switch_base + agg_id(pod, i));
            for c in 0..half {
                t.connect(switch(agg_id(pod, i)), switch(i * half + c + 1));
            }
        }
        for j in 0..half {
            t.add_switch(switch_base + edge_id(pod, j));
            for i in 0..half {
                t.connect(switch(edge_id(pod, j)), switch(agg_id(pod, i)));
            }
            for _ in 0..params.hosts_per_edge {
                t.add_host(host_id);
                t.connect(switch(edge_id(pod, j)), NodeRef::Host(host_id));
                host_id += 1;
            }
        }
    }
}

fn nodes(t: &Topology) -> Vec<NodeRef> {
    let switches = t.switches.iter().map(|s| NodeRef::Switch(*s));
    switches.chain(t.hosts.iter().map(|h| NodeRef::Host(*h))).collect()
}

/// Same nodes, same links in the same order, and the same ports from
/// `connect` on every node afterwards (which is all `next_port` is for).
fn assert_identical(mut built: Topology, mut oracle: Topology, what: &str) {
    assert_eq!(built.switches, oracle.switches, "{what}: switches");
    assert_eq!(built.hosts, oracle.hosts, "{what}: hosts");
    assert_eq!(built.link_count(), oracle.link_count(), "{what}: link count");
    let (b, o): (Vec<_>, Vec<_>) = (built.all_links().collect(), oracle.all_links().collect());
    assert_eq!(b, o, "{what}: links");
    let probe = NodeRef::Switch(-1);
    for n in nodes(&oracle) {
        assert_eq!(built.connect(n, probe), oracle.connect(n, probe), "{what}: next port of {n:?}");
    }
}

#[test]
fn fat_tree_equals_the_incremental_construction() {
    for k in [2, 4, 6, 8] {
        for hosts_per_edge in [0, 1, 3] {
            let params = FabricParams { k, hosts_per_edge };
            let mut oracle = Topology::new();
            fat_tree_by_connect(&mut oracle, &params, 0);
            assert_eq!(oracle.switches.len(), params.total_switches());
            assert_identical(fat_tree(&params), oracle, &format!("{params:?}"));
        }
    }
}

/// Grafting into a network that already has nodes — some of them the
/// fabric's own ids, already wired — continues each node's port
/// numbering exactly as `connect` would.
#[test]
fn fat_tree_into_continues_the_ports_of_nodes_that_exist() {
    let params = FabricParams { k: 4, hosts_per_edge: 2 };
    let base = 100;
    let start = || {
        let mut t = mpr_sdn::topology::fig1();
        // A core, an aggregation switch and a fabric host, pre-wired.
        t.connect_ports(NodeRef::Switch(base + 1), 7, NodeRef::Switch(1), 9);
        t.connect(NodeRef::Switch(base + 5), NodeRef::Switch(2));
        t.connect(NodeRef::Host(fabric_ids::HOST_BASE + 3), NodeRef::Switch(3));
        t
    };
    let (mut built, mut oracle) = (start(), start());
    fat_tree_into(&mut built, &params, base);
    fat_tree_by_connect(&mut oracle, &params, base);
    // Core 1 continues at port 8; its first agg (id 5) already used port 1.
    assert_eq!(built.peer(NodeRef::Switch(base + 1), 8), Some((NodeRef::Switch(base + 5), 2)));
    assert_identical(built, oracle, "graft over existing nodes");
}

fn fnv(h: &mut u64, s: &str) {
    for b in s.bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Directed-link count and an FNV-1a digest of `all_links()` in order,
/// then the two id sets.
fn digest(t: &Topology) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    for l in t.all_links() {
        fnv(&mut h, &format!("{l:?}\n"));
        n += 1;
    }
    // Formatted as the `BTreeSet<i64>`s they were when the digests were taken.
    let set = |ids: &[i64]| format!("{:?}", ids.iter().collect::<BTreeSet<_>>());
    fnv(&mut h, &(set(&t.switches) + &set(&t.hosts)));
    (n, h)
}

/// Taken at the parent commit, where `links` was a
/// `BTreeMap<(NodeRef, i64), (NodeRef, i64)>` and `all_links()` its
/// iteration order.
#[test]
fn generators_read_back_as_the_map_layout_built_them() {
    let ft8 = fat_tree(&FabricParams { k: 8, hosts_per_edge: 2 });
    assert_eq!(digest(&ft8), (640, 3143013518829721489));
    let campus169 = campus(&CampusParams::with_total_switches(169));
    assert_eq!(digest(&campus169), (1596, 8041178000661656616));
}
