//! Network topologies: the Fig. 1 fixture and the Stanford-campus-style
//! generator used by the evaluation (§5.2).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::mem::size_of;
use std::ops::Deref;
use std::sync::{Arc, RwLock};

/// A node reference: switch or host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeRef {
    /// A switch, by id.
    Switch(i64),
    /// A host, by id (the id doubles as its IP).
    Host(i64),
}

impl NodeRef {
    /// The id regardless of kind.
    pub fn id(&self) -> i64 {
        match self {
            NodeRef::Switch(i) | NodeRef::Host(i) => *i,
        }
    }
}

/// Memoized `routes_to` results, keyed by host and guarded by the owning
/// topology's generation counter: any link-state mutation bumps the
/// generation, and a cache stamped with an older generation is flushed
/// wholesale on the next lookup. Interior mutability keeps `routes_to`
/// callable through `&Topology`; the `RwLock` keeps the cache `Sync` for
/// callers that share one `Arc<Topology>` across threads.
#[derive(Default)]
struct RouteCache {
    inner: RwLock<RouteCacheInner>,
}

#[derive(Default)]
struct RouteCacheInner {
    /// Generation of the topology these routes were computed against.
    generation: u64,
    routes: HashMap<i64, Arc<BTreeMap<i64, i64>>>,
}

impl fmt::Debug for RouteCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read().unwrap_or_else(|p| p.into_inner());
        f.debug_struct("RouteCache")
            .field("generation", &inner.generation)
            .field("hosts", &inner.routes.len())
            .finish()
    }
}

/// One directed half of a link, as its owner's adjacency slice stores it.
#[derive(Debug, Clone, Copy)]
struct HalfLink {
    port: i32,
    /// Index of the far node in `Topology::nodes`.
    peer: u32,
    peer_port: i32,
}

#[derive(Debug, Clone)]
struct Node {
    id: NodeRef,
    /// The port `connect` hands out next; 0 until the node is first wired.
    next_port: i64,
    /// Half-links sorted by `port`, at most one per port. Symmetric: the
    /// half `(self, p) → (m, q)` exists iff `(m, q) → (self, p)` does.
    links: Vec<HalfLink>,
}

/// A node a generator has [`Topology::open`]ed: its index and the first of
/// the ports claimed for it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    node: u32,
    first_port: i64,
}

/// The ids of one kind of node, ascending, each with its row in the node
/// table: the intern table, and what `topology.switches` / `.hosts` read
/// as — a sorted `[i64]`. Only [`Topology`] adds to it.
#[derive(Debug, Clone, Default)]
pub struct NodeIds {
    ids: Vec<i64>,
    /// `rows[i]` is where node `ids[i]` sits in `Topology::nodes`.
    rows: Vec<u32>,
}

impl NodeIds {
    /// Whether `id` is one of them, by binary search (this shadows the
    /// slice's linear `contains`).
    pub fn contains(&self, id: &i64) -> bool {
        self.ids.binary_search(id).is_ok()
    }

    fn row(&self, id: i64) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|at| self.rows[at])
    }

    fn reserve_exact(&mut self, additional: usize) {
        self.ids.reserve_exact(additional);
        self.rows.reserve_exact(additional);
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * size_of::<i64>() + self.rows.capacity() * size_of::<u32>()
    }
}

impl Deref for NodeIds {
    type Target = [i64];
    fn deref(&self) -> &[i64] {
        &self.ids
    }
}

impl<'a> IntoIterator for &'a NodeIds {
    type Item = &'a i64;
    type IntoIter = std::slice::Iter<'a, i64>;
    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter()
    }
}

/// The same ids; which rows they sit in is layout, not identity.
impl PartialEq for NodeIds {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
    }
}

/// Link ports are stored as `i32`; the public API speaks `i64` like the
/// rest of the simulator.
fn port32(port: i64) -> i32 {
    i32::try_from(port).expect("port numbers fit in i32")
}

/// An undirected multigraph of switches and hosts with numbered ports.
///
/// Nodes are interned to dense `u32` rows in insertion order — the two
/// sorted id columns below are the intern table — and each node owns a
/// port-sorted slice of 12-byte half-links addressed by row (DESIGN.md
/// "Topology"). There is no other link store.
#[derive(Debug, Default)]
pub struct Topology {
    /// Switch ids, ascending.
    pub switches: NodeIds,
    /// Host ids, ascending.
    pub hosts: NodeIds,
    nodes: Vec<Node>,
    /// Bumped by every mutation that can affect connectivity.
    generation: u64,
    cache: RouteCache,
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        // The clone is an independent topology: it keeps the generation
        // (so equality of generations still implies "same link state" per
        // instance) but starts with an empty route cache.
        Topology {
            switches: self.switches.clone(),
            hosts: self.hosts.clone(),
            nodes: self.nodes.clone(),
            generation: self.generation,
            cache: RouteCache::default(),
        }
    }
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a switch.
    pub fn add_switch(&mut self, id: i64) {
        self.intern(NodeRef::Switch(id));
        self.generation += 1;
    }

    /// Add a host.
    pub fn add_host(&mut self, id: i64) {
        self.intern(NodeRef::Host(id));
        self.generation += 1;
    }

    /// The link-state generation. Bumped by every mutation; the route
    /// cache is only served while its stamp matches this counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The row of `n`, if it has one.
    fn row(&self, n: NodeRef) -> Option<u32> {
        match n {
            NodeRef::Switch(id) => self.switches.row(id),
            NodeRef::Host(id) => self.hosts.row(id),
        }
    }

    /// The row of `n`, interning it on first sight.
    fn intern(&mut self, n: NodeRef) -> u32 {
        let (table, id) = match n {
            NodeRef::Switch(id) => (&mut self.switches, id),
            NodeRef::Host(id) => (&mut self.hosts, id),
        };
        let at = match table.ids.binary_search(&id) {
            Ok(at) => return table.rows[at],
            Err(at) => at,
        };
        let row = u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes");
        table.ids.insert(at, id);
        table.rows.insert(at, row);
        self.nodes.push(Node { id: n, next_port: 0, links: Vec::new() });
        row
    }

    /// Make room for that many more nodes without over-allocating.
    fn reserve_nodes(&mut self, switches: usize, hosts: usize) {
        self.nodes.reserve_exact(switches + hosts);
        self.switches.reserve_exact(switches);
        self.hosts.reserve_exact(hosts);
    }

    /// Add `n` (as `add_switch` / `add_host` do) and claim its next
    /// `degree` ports for a generator that knows every node's degree: the
    /// slice is sized for them now and [`Topology::fill`]ed later.
    fn open(&mut self, n: NodeRef, degree: usize) -> Slot {
        let node = self.intern(n);
        let n = &mut self.nodes[node as usize];
        let first_port = n.next_port.max(1);
        n.next_port = first_port + degree as i64;
        n.links.reserve_exact(degree);
        self.generation += 1;
        Slot { node, first_port }
    }

    /// Append the half-links of the ports `slot` claimed, in port order.
    /// The caller writes both halves of every link.
    fn fill(&mut self, slot: Slot, halves: impl IntoIterator<Item = HalfLink>) {
        self.nodes[slot.node as usize].links.extend(halves);
        self.generation += 1;
    }

    fn alloc_port(&mut self, node: u32) -> i32 {
        let n = &mut self.nodes[node as usize];
        let port = n.next_port.max(1);
        n.next_port = port + 1;
        port32(port)
    }

    /// Connect two nodes, auto-assigning the next free port on each side.
    /// Returns `(port_on_a, port_on_b)`.
    pub fn connect(&mut self, a: NodeRef, b: NodeRef) -> (i64, i64) {
        let (ia, ib) = (self.intern(a), self.intern(b));
        let pa = self.alloc_port(ia);
        let pb = self.alloc_port(ib);
        self.wire(ia, pa, ib, pb);
        (pa.into(), pb.into())
    }

    /// Connect two nodes on explicit ports. A port that is already wired
    /// is re-wired: its old link is removed at both ends first.
    ///
    /// # Panics
    /// If a port number does not fit in `i32`.
    pub fn connect_ports(&mut self, a: NodeRef, pa: i64, b: NodeRef, pb: i64) {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.wire(ia, port32(pa), ib, port32(pb));
    }

    fn wire(&mut self, a: u32, pa: i32, b: u32, pb: i32) {
        self.detach(a, pa);
        self.detach(b, pb);
        self.attach(a, HalfLink { port: pa, peer: b, peer_port: pb });
        self.attach(b, HalfLink { port: pb, peer: a, peer_port: pa });
        self.generation += 1;
    }

    /// Remove the link on `(node, port)`, both halves, if there is one.
    fn detach(&mut self, node: u32, port: i32) {
        let links = &mut self.nodes[node as usize].links;
        let Ok(at) = links.binary_search_by_key(&port, |l| l.port) else {
            return;
        };
        let old = links.remove(at);
        let far = &mut self.nodes[old.peer as usize].links;
        // Absent only for a self-loop on one port, whose single half is
        // already gone.
        if let Ok(at) = far.binary_search_by_key(&old.peer_port, |l| l.port) {
            far.remove(at);
        }
    }

    /// Store one half-link, keeping the slice port-sorted.
    fn attach(&mut self, node: u32, half: HalfLink) {
        let n = &mut self.nodes[node as usize];
        n.next_port = n.next_port.max(i64::from(half.port) + 1).max(1);
        match n.links.binary_search_by_key(&half.port, |l| l.port) {
            // Only the second half of a self-loop on one port.
            Ok(at) => n.links[at] = half,
            Err(at) => n.links.insert(at, half),
        }
    }

    /// A node's adjacency slice; empty for an unknown node.
    fn adjacency(&self, node: NodeRef) -> &[HalfLink] {
        self.row(node).map_or(&[], |row| &self.nodes[row as usize].links)
    }

    fn far_end(&self, half: &HalfLink) -> (NodeRef, i64) {
        (self.nodes[half.peer as usize].id, half.peer_port.into())
    }

    /// Nodes in `NodeRef` order (switches, then hosts, each by id) — the
    /// order `all_links` lists them in.
    fn sorted_nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        let rows = self.switches.rows.iter().chain(&self.hosts.rows);
        rows.map(|&row| &self.nodes[row as usize])
    }

    /// The far end of `(node, port)`: two binary searches, of an id column
    /// and of the node's slice.
    pub fn peer(&self, node: NodeRef, port: i64) -> Option<(NodeRef, i64)> {
        let links = self.adjacency(node);
        let port = i32::try_from(port).ok()?;
        let at = links.binary_search_by_key(&port, |l| l.port).ok()?;
        Some(self.far_end(&links[at]))
    }

    /// A node's links as `(port, (peer, peer_port))`, in port order: one
    /// id lookup, then a walk of the node's slice — O(degree).
    pub fn links_of(
        &self,
        node: NodeRef,
    ) -> impl Iterator<Item = (i64, (NodeRef, i64))> + '_ {
        self.adjacency(node).iter().map(|l| (l.port.into(), self.far_end(l)))
    }

    /// The `i`-th of a node's ports, in port order.
    pub fn port_at(&self, node: NodeRef, i: usize) -> Option<i64> {
        self.adjacency(node).get(i).map(|l| l.port.into())
    }

    /// Every directed link as `((node, port), (peer, peer_port))`, in
    /// `(node, port)` order whatever order the nodes were added in.
    pub fn all_links(&self) -> impl Iterator<Item = ((NodeRef, i64), (NodeRef, i64))> + '_ {
        self.sorted_nodes()
            .flat_map(move |n| n.links.iter().map(move |l| ((n.id, l.port.into()), self.far_end(l))))
    }

    /// The `(switch, switch_port)` a host hangs off (hosts are single-homed).
    pub fn host_attachment(&self, host: i64) -> Option<(i64, i64)> {
        self.links_of(NodeRef::Host(host)).find_map(|(_, (peer, peer_port))| match peer {
            NodeRef::Switch(s) => Some((s, peer_port)),
            NodeRef::Host(_) => None,
        })
    }

    /// Number of links (undirected).
    pub fn link_count(&self) -> usize {
        self.nodes.iter().map(|n| n.links.len()).sum::<usize>() / 2
    }

    /// Bytes this topology holds on the heap, at capacity: the node
    /// table, every adjacency slice and the two id columns. The route
    /// cache is derived state and not counted.
    /// `tests/topology_budget.rs` pins it per node and per half-link.
    pub fn heap_bytes(&self) -> u64 {
        let total = self.nodes.capacity() * size_of::<Node>()
            + self.nodes.iter().map(|n| n.links.capacity() * size_of::<HalfLink>()).sum::<usize>()
            + self.switches.heap_bytes()
            + self.hosts.heap_bytes();
        total as u64
    }

    /// Shortest-path routing toward `host`, memoized. The first call per
    /// `(generation, host)` runs [`Topology::routes_to_uncached`]; repeat
    /// calls — every proactive-route install, every backtest candidate —
    /// share one `Arc` of the result. Mutating the topology bumps the
    /// generation and invalidates the whole cache.
    pub fn routes_to(&self, host: i64) -> Arc<BTreeMap<i64, i64>> {
        {
            let cache = self.cache.inner.read().unwrap_or_else(|p| p.into_inner());
            if cache.generation == self.generation {
                if let Some(r) = cache.routes.get(&host) {
                    return Arc::clone(r);
                }
            }
        }
        let computed = Arc::new(self.routes_to_uncached(host));
        let mut cache = self.cache.inner.write().unwrap_or_else(|p| p.into_inner());
        if cache.generation != self.generation {
            cache.routes.clear();
            cache.generation = self.generation;
        }
        Arc::clone(cache.routes.entry(host).or_insert(computed))
    }

    /// Shortest-path routing toward `host`: for each switch, the port that
    /// leads one hop closer. BFS from the attachment switch over node
    /// indices — neighbours in port order, a visited bitset with the hosts
    /// pre-marked so an edge costs one bit test, and the route map built
    /// once from the visit list. This is the uncached reference path;
    /// [`Topology::routes_to`] memoizes it.
    pub fn routes_to_uncached(&self, host: i64) -> BTreeMap<i64, i64> {
        let is_switch = |l: &&HalfLink| matches!(self.nodes[l.peer as usize].id, NodeRef::Switch(_));
        let attachment = self.adjacency(NodeRef::Host(host)).iter().find(is_switch);
        let Some(&HalfLink { peer: root, peer_port: root_port, .. }) = attachment else {
            return BTreeMap::new();
        };
        let mut visited = vec![0u64; self.nodes.len().div_ceil(64)];
        let mut visit = |i: u32| {
            let (word, bit) = (i as usize / 64, 1u64 << (i % 64));
            let fresh = visited[word] & bit == 0;
            visited[word] |= bit;
            fresh
        };
        for &host_row in &self.hosts.rows {
            visit(host_row);
        }
        visit(root);
        // Reached switches with their port toward `host`, in BFS order:
        // the queue and the result in one.
        let mut reached = vec![(root, root_port)];
        let mut head = 0;
        while let Some(&(s, _)) = reached.get(head) {
            head += 1;
            for l in &self.nodes[s as usize].links {
                if visit(l.peer) {
                    reached.push((l.peer, l.peer_port));
                }
            }
        }
        reached.into_iter().map(|(s, port)| (self.nodes[s as usize].id.id(), port.into())).collect()
    }
}

/// Host ids in the Fig. 1 fixture.
pub mod fig1_hosts {
    /// The border host standing in for the Internet.
    pub const INTERNET: i64 = 100;
    /// Primary web server H1.
    pub const H1: i64 = 10;
    /// Backup web server H2.
    pub const H2: i64 = 20;
    /// DNS server.
    pub const DNS: i64 = 17;
}

/// The Fig. 1 scenario topology: switch S1 fans out to S2 (web server H1)
/// and S3 (backup web server H2 + DNS server); HTTP and DNS traffic enters
/// at S1 from a border host standing in for the Internet.
///
/// Port map (fixed, referenced by the Fig. 2 program):
/// - S1: port 0 = Internet, port 1 = S2, port 2 = S3
/// - S2: port 0 = S1, port 1 = H1, port 2 = S3
/// - S3: port 0 = S1, port 1 = DNS server, port 2 = H2, port 3 = S2
pub fn fig1() -> Topology {
    use fig1_hosts::*;
    let mut t = Topology::new();
    for s in [1, 2, 3] {
        t.add_switch(s);
    }
    for h in [INTERNET, H1, H2, DNS] {
        t.add_host(h);
    }
    let (s1, s2, s3) = (NodeRef::Switch(1), NodeRef::Switch(2), NodeRef::Switch(3));
    t.connect_ports(s1, 0, NodeRef::Host(INTERNET), 0);
    t.connect_ports(s1, 1, s2, 0);
    t.connect_ports(s1, 2, s3, 0);
    t.connect_ports(s2, 1, NodeRef::Host(H1), 0);
    t.connect_ports(s2, 2, s3, 3);
    t.connect_ports(s3, 1, NodeRef::Host(DNS), 0);
    t.connect_ports(s3, 2, NodeRef::Host(H2), 0);
    t
}

/// Parameters for the campus generator.
#[derive(Debug, Clone)]
pub struct CampusParams {
    /// Core/Operational-Zone routers (the Stanford config has 16).
    pub core: usize,
    /// Edge networks, each rooted at one edge switch.
    pub edges: usize,
    /// Hosts per edge network (1–15 in §5.2).
    pub hosts_per_edge: usize,
}

impl Default for CampusParams {
    fn default() -> Self {
        // Smallest evaluation topology: 16 core + 3 edge = 19 routers.
        CampusParams { core: 16, edges: 3, hosts_per_edge: 15 }
    }
}

impl CampusParams {
    /// Scale the number of edge networks so the total switch count is
    /// `switches` (Fig. 9c sweeps 19 → 169).
    pub fn with_total_switches(switches: usize) -> Self {
        let core = 16.min(switches.saturating_sub(1)).max(1);
        CampusParams { core, edges: switches.saturating_sub(core), hosts_per_edge: 3 }
    }

    /// Total switch count.
    pub fn total_switches(&self) -> usize {
        self.core + self.edges
    }
}

/// Ids used by the campus generator.
pub mod campus_ids {
    /// First host id.
    pub const HOST_BASE: i64 = 1000;
    /// The border host representing external traffic.
    pub const BORDER: i64 = 999;
}

/// Generate a campus network: a ring-with-chords core (like the Stanford
/// backbone's OZ routers) and `edges` edge switches, each dual-homed to the
/// core and serving `hosts_per_edge` hosts. A border host on core switch 1
/// plays the Internet.
pub fn campus(params: &CampusParams) -> Topology {
    let mut t = Topology::new();
    let core_n = params.core as i64;
    for s in 1..=core_n {
        t.add_switch(s);
    }
    // Ring.
    for s in 1..=core_n {
        let next = s % core_n + 1;
        if core_n > 1 {
            t.connect(NodeRef::Switch(s), NodeRef::Switch(next));
        }
    }
    // Chords every 4 for path diversity.
    if core_n > 4 {
        for s in 1..=core_n {
            let far = (s + 3) % core_n + 1;
            if far != s {
                t.connect(NodeRef::Switch(s), NodeRef::Switch(far));
            }
        }
    }
    // Border host.
    t.add_host(campus_ids::BORDER);
    t.connect(NodeRef::Switch(1), NodeRef::Host(campus_ids::BORDER));
    // Edge switches and hosts.
    let mut host_id = campus_ids::HOST_BASE;
    for e in 0..params.edges as i64 {
        let sw = core_n + 1 + e;
        t.add_switch(sw);
        let up1 = e % core_n + 1;
        let up2 = (e * 7 + 3) % core_n + 1;
        t.connect(NodeRef::Switch(sw), NodeRef::Switch(up1));
        if up2 != up1 && core_n > 1 {
            t.connect(NodeRef::Switch(sw), NodeRef::Switch(up2));
        }
        for _ in 0..params.hosts_per_edge {
            t.add_host(host_id);
            t.connect(NodeRef::Switch(sw), NodeRef::Host(host_id));
            host_id += 1;
        }
    }
    t
}

/// Parameters for the fat-tree/Clos generator.
#[derive(Debug, Clone)]
pub struct FabricParams {
    /// Fat-tree arity `k` (even): `k` pods of `k/2` aggregation + `k/2`
    /// edge switches over `(k/2)²` cores — `5k²/4` switches total.
    pub k: usize,
    /// Hosts attached to each edge switch (the canonical fat-tree uses
    /// `k/2`; capped here so 10k-switch fabrics keep workable host counts).
    pub hosts_per_edge: usize,
}

impl FabricParams {
    /// Pick the even `k` whose `5k²/4` switch count lands closest to
    /// `switches` (the fig9c-XL sweep asks for 169 → 1k → 4k → 10k).
    pub fn with_total_switches(switches: usize) -> Self {
        let ideal = (4.0 * switches as f64 / 5.0).sqrt();
        let lo = ((ideal as usize) / 2 * 2).max(2);
        let hi = lo + 2;
        let count = |k: usize| 5 * k * k / 4;
        let k = if switches.abs_diff(count(lo)) <= switches.abs_diff(count(hi)) { lo } else { hi };
        let edges = k * k / 2;
        // Denser host fan-out on small fabrics, sparse at 10k switches.
        let hosts_per_edge = (512 / edges.max(1)).clamp(1, 8);
        FabricParams { k, hosts_per_edge }
    }

    /// The arity the generator builds: `k` rounded down to even, at
    /// least 2. Every count below and [`fat_tree_into`] go through this.
    pub fn arity(&self) -> usize {
        self.k.max(2) & !1
    }

    /// Total switch count (`(k/2)²` cores + `k²/2` agg + `k²/2` edge).
    pub fn total_switches(&self) -> usize {
        5 * self.arity() * self.arity() / 4
    }

    /// Total host count.
    pub fn total_hosts(&self) -> usize {
        self.arity() * self.arity() / 2 * self.hosts_per_edge
    }
}

/// Ids used by the fat-tree generator.
pub mod fabric_ids {
    /// First host id (hosts are appended after all switch ids).
    pub const HOST_BASE: i64 = 10_000_000;
}

/// Generate a `k`-ary fat-tree (Al-Fares-style Clos): `(k/2)²` core
/// switches; `k` pods, each with `k/2` aggregation switches fully meshed
/// to `k/2` edge switches; aggregation switch `i` of every pod uplinks to
/// cores `[i·k/2, (i+1)·k/2)`. Edge switches carry `hosts_per_edge` hosts.
/// Switch ids: cores `1..=(k/2)²`, then per pod aggs, then edges.
pub fn fat_tree(params: &FabricParams) -> Topology {
    let mut t = Topology::new();
    fat_tree_into(&mut t, params, 0);
    t
}

/// Build the [`fat_tree`] of `params` inside `t`, its switch ids offset by
/// `switch_base` (host ids already live in their own
/// [`fabric_ids::HOST_BASE`] range) — how a scenario grafts a fabric onto
/// an existing network without building it twice.
///
/// Ports are exactly what the `add_switch` / `connect` sequence "cores;
/// per pod: each agg then its uplinks, each edge then its agg links then
/// its hosts" hands out (pinned against that sequence by
/// `tests/topology_generators.rs`). Counting from each node's first free
/// port: core `+pod` ↔ agg `+c`, agg `+k/2+j` ↔ edge `+i`, edge `+k/2+h`
/// ↔ host `+0`. Every node is interned first, then each slice is written
/// once, at its final size, by that arithmetic.
pub fn fat_tree_into(t: &mut Topology, params: &FabricParams, switch_base: i64) {
    let k = params.arity();
    let half = k / 2;
    let hosts_per_edge = params.hosts_per_edge;
    let core_n = half * half;
    t.reserve_nodes(params.total_switches(), params.total_hosts());
    // Opened in ascending id order, so each id lands at the end of its
    // column. Pod-major:
    // `aggs[pod·k/2 + i]`, `edges[pod·k/2 + j]`,
    // `hosts[(pod·k/2 + j)·hosts_per_edge + h]`.
    let open_switches = |t: &mut Topology, after: usize, n: usize, degree: usize| -> Vec<Slot> {
        let natives = after + 1..=after + n;
        natives.map(|native| t.open(NodeRef::Switch(switch_base + native as i64), degree)).collect()
    };
    let cores = open_switches(t, 0, core_n, k);
    let aggs = open_switches(t, core_n, k * half, k);
    let edges = open_switches(t, core_n + k * half, k * half, half + hosts_per_edge);
    let hosts: Vec<Slot> = (0..k * half * hosts_per_edge)
        .map(|h| t.open(NodeRef::Host(fabric_ids::HOST_BASE + h as i64), 1))
        .collect();
    let half_link = |from: Slot, port: usize, to: Slot, peer_port: usize| HalfLink {
        port: port32(from.first_port + port as i64),
        peer: to.node,
        peer_port: port32(to.first_port + peer_port as i64),
    };
    // Core `i·k/2 + c` is uplink `c` of aggregation switch `i` of every pod.
    for (at, &core) in cores.iter().enumerate() {
        let (i, c) = (at / half, at % half);
        t.fill(core, (0..k).map(|pod| half_link(core, pod, aggs[pod * half + i], c)));
    }
    for pod in 0..k {
        let (pod_aggs, pod_edges) = (&aggs[pod * half..][..half], &edges[pod * half..][..half]);
        for (i, &agg) in pod_aggs.iter().enumerate() {
            let up = (0..half).map(|c| half_link(agg, c, cores[i * half + c], pod));
            let down = (0..half).map(|j| half_link(agg, half + j, pod_edges[j], i));
            t.fill(agg, up.chain(down));
        }
        for (j, &edge) in pod_edges.iter().enumerate() {
            let edge_hosts = &hosts[(pod * half + j) * hosts_per_edge..][..hosts_per_edge];
            let up = (0..half).map(|i| half_link(edge, i, pod_aggs[i], half + j));
            let down = (0..hosts_per_edge).map(|h| half_link(edge, half + h, edge_hosts[h], 0));
            t.fill(edge, up.chain(down));
            for (h, &host) in edge_hosts.iter().enumerate() {
                t.fill(host, [half_link(host, 0, edge, half + h)]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_port_map_matches_docs() {
        let t = fig1();
        assert_eq!(t.switches.len(), 3);
        assert_eq!(t.hosts.len(), 4);
        assert_eq!(
            t.peer(NodeRef::Switch(1), 1),
            Some((NodeRef::Switch(2), 0))
        );
        assert_eq!(
            t.peer(NodeRef::Switch(3), 2),
            Some((NodeRef::Host(fig1_hosts::H2), 0))
        );
        assert_eq!(t.host_attachment(fig1_hosts::H2), Some((3, 2)));
        assert_eq!(t.host_attachment(fig1_hosts::INTERNET), Some((1, 0)));
    }

    #[test]
    fn routes_reach_every_switch() {
        let t = fig1();
        let routes = t.routes_to(fig1_hosts::H2);
        // Every switch has a port toward H2.
        assert_eq!(routes.len(), 3);
        assert_eq!(routes[&3], 2); // S3 delivers directly
        // Following the route from S1 terminates at H2.
        let mut at = 1;
        for _ in 0..5 {
            let port = routes[&at];
            match t.peer(NodeRef::Switch(at), port).unwrap() {
                (NodeRef::Switch(s), _) => at = s,
                (NodeRef::Host(h), _) => {
                    assert_eq!(h, fig1_hosts::H2);
                    return;
                }
            }
        }
        panic!("route did not terminate at H2");
    }

    #[test]
    fn campus_scales_to_paper_sizes() {
        // Smallest: 19 routers, 259 hosts (16 core + 3 edges; but our
        // default puts 45 hosts — the paper's exact host counts come from
        // its traces; shape is what matters).
        let t = campus(&CampusParams::default());
        assert_eq!(t.switches.len(), 19);
        // Largest evaluation size: 169 switches.
        let p = CampusParams::with_total_switches(169);
        let t = campus(&p);
        assert_eq!(t.switches.len(), 169);
        assert!(t.hosts.len() >= 400);
        // All hosts are attached and reachable.
        for h in &t.hosts {
            assert!(t.host_attachment(*h).is_some(), "host {h} unattached");
        }
        let some_host = *t.hosts.iter().next_back().unwrap();
        let routes = t.routes_to(some_host);
        assert_eq!(routes.len(), t.switches.len(), "core is connected");
    }

    #[test]
    fn connect_auto_ports_do_not_collide() {
        let mut t = Topology::new();
        t.add_switch(1);
        t.add_switch(2);
        t.add_switch(3);
        let (p1a, _) = t.connect(NodeRef::Switch(1), NodeRef::Switch(2));
        let (p1b, _) = t.connect(NodeRef::Switch(1), NodeRef::Switch(3));
        assert_ne!(p1a, p1b);
        assert_eq!(t.link_count(), 2);
        assert!(t.port_at(NodeRef::Switch(1), 1).is_some() && t.port_at(NodeRef::Switch(1), 2).is_none());
    }

    #[test]
    fn rewiring_a_port_detaches_its_old_peer() {
        let (s1, s2, s3) = (NodeRef::Switch(1), NodeRef::Switch(2), NodeRef::Switch(3));
        let mut t = fig1();
        let links = t.link_count();
        // S2 port 1 led to H1; point it at a new switch instead.
        t.add_switch(4);
        t.connect_ports(s2, 1, NodeRef::Switch(4), 0);
        assert_eq!(t.peer(s2, 1), Some((NodeRef::Switch(4), 0)));
        assert_eq!(t.peer(NodeRef::Host(fig1_hosts::H1), 0), None, "old peer keeps no half-link");
        assert_eq!(t.links_of(NodeRef::Host(fig1_hosts::H1)).count(), 0);
        assert_eq!(t.host_attachment(fig1_hosts::H1), None);
        assert_eq!(t.link_count(), links, "one link removed, one added");
        assert!(t.routes_to(fig1_hosts::H1).is_empty(), "H1 is unreachable");
        assert_eq!(t.routes_to(fig1_hosts::H2)[&4], 0, "the new switch routes over its port 0");

        // Re-wiring the far side of a switch-switch link frees both ends.
        t.connect_ports(s3, 0, NodeRef::Switch(4), 1);
        assert_eq!(t.peer(s1, 2), None, "S1 port 2 led to S3 port 0");
        assert_eq!((t.port_at(s1, 0), t.port_at(s1, 1), t.port_at(s1, 2)), (Some(0), Some(1), None));
        assert_eq!(t.link_count(), links);
        for ((a, pa), (b, pb)) in t.all_links() {
            assert_eq!(t.peer(b, pb), Some((a, pa)), "every half-link has its reverse");
        }
        // Wiring a link onto the ports it already uses changes nothing.
        let before: Vec<_> = t.all_links().collect();
        t.connect_ports(s3, 0, NodeRef::Switch(4), 1);
        t.connect_ports(NodeRef::Switch(4), 1, s3, 0);
        assert_eq!(t.all_links().collect::<Vec<_>>(), before);
    }

    #[test]
    fn fabric_params_count_what_the_generator_builds() {
        for k in 0..=9 {
            let p = FabricParams { k, hosts_per_edge: 2 };
            let t = fat_tree(&p);
            assert_eq!(t.switches.len(), p.total_switches(), "k = {k}");
            assert_eq!(t.hosts.len(), p.total_hosts(), "k = {k}");
        }
        assert_eq!(FabricParams { k: 5, hosts_per_edge: 1 }.total_switches(), 20);
    }
}
