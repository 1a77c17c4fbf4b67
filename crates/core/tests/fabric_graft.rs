//! The scaled Q1 topologies, link for link. `q1_on_fabric` builds its
//! fat-tree straight into the Q1 network; the oracle is what it did
//! before — build the fabric on its own, then clone Q1 and re-`connect`
//! every fabric link under offset ids. Digests of `all_links()` taken at
//! the parent commit pin both grafts (and `q1_on_campus`, which still
//! re-connects) across the change of `Topology`'s layout.

use mpr_core::scenarios::Scenario;
use mpr_sdn::topology::{fat_tree, FabricParams, NodeRef, Topology};
use std::collections::BTreeSet;

/// The parent commit's `q1_on_fabric` graft.
fn graft_by_reconnect(switches: usize) -> Topology {
    let params = FabricParams::with_total_switches(switches.saturating_sub(5).max(4));
    let fabric = fat_tree(&params);
    let mut topo = (*Scenario::q1_copy_paste().topology).clone();
    let base = 100_000i64;
    for sw in &fabric.switches {
        topo.add_switch(base + sw);
    }
    for h in &fabric.hosts {
        topo.add_host(*h);
    }
    for (a, b) in fabric.all_links() {
        // Both directions are listed; add each link once.
        if a < b {
            let off = |n: NodeRef| match n {
                NodeRef::Switch(t) => NodeRef::Switch(base + t),
                NodeRef::Host(h) => NodeRef::Host(h),
            };
            topo.connect(off(a.0), off(b.0));
        }
    }
    topo.connect(NodeRef::Switch(base + 1), NodeRef::Switch(1));
    topo
}

#[test]
fn in_place_graft_equals_clone_and_reconnect() {
    let mut built = (*Scenario::q1_on_fabric(169).topology).clone();
    let mut oracle = graft_by_reconnect(169);
    assert_eq!(built.switches, oracle.switches);
    assert_eq!(built.hosts, oracle.hosts);
    let (b, o): (Vec<_>, Vec<_>) = (built.all_links().collect(), oracle.all_links().collect());
    assert_eq!(b, o);
    // `connect` after the build hands out the same ports on every node.
    let probe = NodeRef::Switch(-1);
    let switches = oracle.switches.iter().map(|s| NodeRef::Switch(*s));
    let nodes: Vec<NodeRef> = switches.chain(oracle.hosts.iter().map(|h| NodeRef::Host(*h))).collect();
    for n in nodes {
        assert_eq!(built.connect(n, probe), oracle.connect(n, probe), "next port of {n:?}");
    }
}

fn fnv(h: &mut u64, s: &str) {
    for b in s.bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Directed-link count and an FNV-1a digest of `all_links()` in order,
/// then the two id sets (as `mpr_sdn`'s `topology_generators.rs`).
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

#[test]
fn scaled_q1_topologies_read_back_as_the_parent_commit_built_them() {
    assert_eq!(digest(&Scenario::q1_on_campus(169).topology), (1576, 18145415645315218665));
    assert_eq!(digest(&Scenario::q1_on_fabric(169).topology), (2766, 11443567081568846310));
}

/// The benchmark's `fabric-10k` network. Run alone
/// (`-- --exact ten_thousand_switch_graft_reads_back --nocapture`) the
/// printed `VmHWM` is the resident cost of building it.
#[test]
fn ten_thousand_switch_graft_reads_back() {
    let s = Scenario::q1_on_fabric(10_000);
    println!("heap_bytes {}", s.topology.heap_bytes());
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        println!("{}", status.lines().find(|l| l.starts_with("VmHWM")).unwrap_or("VmHWM: n/a"));
    }
    assert_eq!(digest(&s.topology), (737_130, 5548360644244168294));
}
