//! Route-cache coherence: the memoized `routes_to` must always equal the
//! BFS oracle `routes_to_uncached`, across topology generators, after
//! topology mutations (generation bumps), and — because fault plans never
//! mutate the `Topology` — under `LinkDown`/`LinkFlap`/`SwitchCrash`
//! schedules, where a pre-warmed cache must be bit-identical to a cold one.

use mpr_sdn::controller::{NdlogController, TupleCodec};
use mpr_sdn::faults::{CtrlFaults, FaultPlan, LinkFault, SwitchCrash};
use mpr_sdn::topology::{
    campus, fat_tree, fig1, fig1_hosts, CampusParams, FabricParams, NodeRef, Topology,
};
use mpr_sdn::{Packet, SimConfig, SimStats, Simulation};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Shortest-path routes toward `host` by a BFS that shares no code with
/// `Topology`: `all_links()` collected into a map, neighbours by range
/// query in port order.
fn bfs_over_all_links(t: &Topology, host: i64) -> BTreeMap<i64, i64> {
    let links: BTreeMap<(NodeRef, i64), (NodeRef, i64)> = t.all_links().collect();
    let of = |n: NodeRef| links.range((n, i64::MIN)..=(n, i64::MAX)).map(|(_, peer)| *peer);
    let mut routes = BTreeMap::new();
    let attachment = of(NodeRef::Host(host)).find_map(|(peer, port)| match peer {
        NodeRef::Switch(s) => Some((s, port)),
        NodeRef::Host(_) => None,
    });
    let Some((root, root_port)) = attachment else {
        return routes;
    };
    routes.insert(root, root_port);
    let mut visited = BTreeSet::from([root]);
    let mut queue = VecDeque::from([root]);
    while let Some(s) = queue.pop_front() {
        for (peer, peer_port) in of(NodeRef::Switch(s)) {
            if let NodeRef::Switch(next) = peer {
                if visited.insert(next) {
                    routes.insert(next, peer_port);
                    queue.push_back(next);
                }
            }
        }
    }
    routes
}

fn assert_cache_matches_oracle(t: &Topology) {
    for h in t.hosts.iter().copied() {
        let cached = t.routes_to(h);
        let oracle = t.routes_to_uncached(h);
        assert_eq!(*cached, oracle, "routes_to({h}) diverged from BFS oracle");
        assert_eq!(oracle, bfs_over_all_links(t, h), "routes_to_uncached({h}) diverged from a BFS over all_links()");
        // Second call must serve the same shared map (no recompute).
        assert!(Arc::ptr_eq(&cached, &t.routes_to(h)), "cache miss on warm lookup");
    }
}

#[test]
fn cached_routes_equal_oracle_on_all_generators() {
    assert_cache_matches_oracle(&fig1());
    assert_cache_matches_oracle(&campus(&CampusParams::with_total_switches(40)));
    assert_cache_matches_oracle(&campus(&CampusParams::with_total_switches(169)));
    assert_cache_matches_oracle(&fat_tree(&FabricParams { k: 4, hosts_per_edge: 2 }));
    assert_cache_matches_oracle(&fat_tree(&FabricParams { k: 8, hosts_per_edge: 2 }));
    assert_cache_matches_oracle(&fat_tree(&FabricParams::with_total_switches(169)));
}

#[test]
fn topology_mutations_bump_generation_and_invalidate() {
    let mut t = fig1();
    let g0 = t.generation();
    let before = t.routes_to(fig1_hosts::H1);

    // Grafting a new switch + host on S3 must invalidate: H1's routes
    // gain an entry for the new switch once it is connected.
    t.add_switch(9);
    assert!(t.generation() > g0, "add_switch must bump the generation");
    t.connect(NodeRef::Switch(9), NodeRef::Switch(3));
    let after = t.routes_to(fig1_hosts::H1);
    assert_eq!(*after, t.routes_to_uncached(fig1_hosts::H1));
    assert!(after.contains_key(&9), "stale cache: new switch missing from routes");
    assert_eq!(before.contains_key(&9), false);

    t.add_host(77);
    let g1 = t.generation();
    t.connect(NodeRef::Switch(9), NodeRef::Host(77));
    assert!(t.generation() > g1, "connect must bump the generation");
    assert_cache_matches_oracle(&t);

    // Re-wiring S1's port toward S3 onto the new switch removes the old
    // link at both ends: routes that crossed it change, none walk it.
    let via_s3 = t.routes_to(fig1_hosts::H2);
    let g2 = t.generation();
    t.connect_ports(NodeRef::Switch(1), 2, NodeRef::Switch(9), 5);
    assert!(t.generation() > g2, "connect_ports must bump the generation");
    assert_eq!(t.peer(NodeRef::Switch(3), 0), None);
    assert_ne!(*t.routes_to(fig1_hosts::H2), *via_s3);
    assert_cache_matches_oracle(&t);
}

#[test]
fn a_clone_starts_cold_but_agrees() {
    let t = fig1();
    let _warm = t.routes_to(fig1_hosts::H1);
    let cloned = t.clone();
    assert_cache_matches_oracle(&cloned);
    assert_eq!(cloned.switches, t.switches);
    assert_eq!(cloned.hosts, t.hosts);
}

/// The reactive fig1 program used across the repo's scenarios.
fn controller() -> NdlogController {
    let program = mpr_ndlog::parse_program(
        "route-cache",
        r"
        materialize(PacketIn, event, 2, keys()).
        materialize(FlowTable, infinity, 2, keys(0)).
        r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.
        r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
        ",
    )
    .unwrap();
    NdlogController::new(program, TupleCodec::fig2()).unwrap()
}

/// Run the fault-plan workload on a shared topology handle; the caller
/// controls whether the route cache is pre-warmed.
fn run_with(topo: Arc<Topology>, cfg: &SimConfig) -> (SimStats, mpr_runtime::ExecLog) {
    let mut sim = Simulation::new(topo, controller(), cfg.clone());
    sim.install_proactive_routes();
    for i in 0..24 {
        sim.inject(fig1_hosts::INTERNET, Packet::http(i, fig1_hosts::INTERNET, fig1_hosts::H1));
        sim.run();
    }
    (sim.stats.clone(), sim.controller().exec_log().clone())
}

fn fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 17,
        links: vec![LinkFault::flap(NodeRef::Switch(1), NodeRef::Switch(2), 10, 400, 25)],
        crashes: vec![SwitchCrash { switch: 2, at: 120, down_for: 60 }],
        ctrl: CtrlFaults {
            drop_chance: 0.2,
            dup_chance: 0.2,
            delay_chance: 0.3,
            delay_min: 1,
            delay_max: 40,
            reorder: true,
        },
    }
}

/// Fault plans act on the simulator, never on the `Topology` — so a
/// pre-warmed route cache must be bit-identical to a cold one under
/// LinkDown/LinkFlap/SwitchCrash/control-channel schedules.
#[test]
fn warmed_cache_is_bit_identical_under_fault_plans() {
    let cfg = SimConfig { faults: fault_plan(), ..SimConfig::default() };
    let cold = Arc::new(fig1());
    let warm = Arc::new(fig1());
    for h in warm.hosts.iter().copied() {
        let _ = warm.routes_to(h); // pre-warm every per-host route map
    }
    let (s_cold, l_cold) = run_with(cold, &cfg);
    let (s_warm, l_warm) = run_with(warm, &cfg);
    assert_eq!(s_cold, s_warm, "SimStats diverged between cold and warmed route cache");
    assert_eq!(l_cold, l_warm, "ExecLog diverged between cold and warmed route cache");
}

/// An empty `FaultPlan` with cached routing must be bit-identical to a
/// plain run — and sharing one warmed topology across sequential runs must
/// not perturb anything either.
#[test]
fn empty_plan_and_shared_topology_change_nothing() {
    let base = SimConfig::default();
    let with_plan = SimConfig {
        faults: FaultPlan { seed: 999, ..FaultPlan::default() },
        ..base.clone()
    };
    let shared = Arc::new(fig1());
    let (s1, l1) = run_with(shared.clone(), &base);
    let (s2, l2) = run_with(shared.clone(), &with_plan);
    let (s3, l3) = run_with(Arc::new(fig1()), &base);
    assert_eq!(s1, s2, "empty fault plan perturbed the run");
    assert_eq!(l1, l2);
    assert_eq!(s1, s3, "sharing a warmed topology perturbed the run");
    assert_eq!(l1, l3);
}
