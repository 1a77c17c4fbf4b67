//! The discrete-event network simulator.
//!
//! Event-driven in the smoltcp style: a time-ordered queue of packet
//! arrivals drives switches (flow-table lookup → actions → next hop),
//! hosts (delivery accounting) and the controller (PacketIn on miss,
//! FlowMod/PacketOut back). Buffered-miss semantics follow OpenFlow: a
//! missed packet waits at the switch; unless the controller answers with a
//! `PacketOut`, it is dropped — exactly the bug class of scenario Q4.
//!
//! Fault injection is one scheduled [`FaultPlan`]: link outages and
//! flaps, switch crashes with flow-table wipes, and control-channel
//! drop/duplicate/reorder/delay. Its chances draw from one RNG stream
//! seeded by the plan, so every run is reproducible and an empty plan is
//! bit-identical to no plan at all.
//!
//! # Repeated injections
//!
//! [`Simulation::run_workload`] forwards a repeated packet only when it may
//! do something new. Its [`InjectionMemo`] keys an injection on the source
//! host and the fields a forwarding can read: `DstIp`, `DstPort` and every
//! field an installed entry matches on ([`FlowTables::matched_fields`]). A
//! key's first occurrence is forwarded; a repeat is forwarded against zeroed
//! counters and, if it sent no packet-in and moved no install, filed with
//! what it added — counters, clock and `next_seq` advance — which is taken
//! back and owed. While [`FlowTables::installs`] stands, a key-equal
//! injection forwards nothing and bumps its entry's multiplicity; the
//! entries are paid that many times over when the count moves and when the
//! loop returns.
//!
//! Exact: under an empty fault plan and from a drained queue, an injection
//! without a packet-in reads only the tables, its keyed fields (a `Modify`
//! writes a constant, so key-equal packets stay key-equal), its path and
//! hop count, and changes no table or controller state; counters are sums;
//! and the clock and `next_seq` are read only relative to one injection's
//! events and by the fault plan. Injections that punt are forwarded every
//! time, so the controller's log is written by the same calls. The memo
//! stands aside under a non-empty fault plan and while a queue holds events.
//! The joint backtest (`mpr_backtest::mqo`) files its injections in the same
//! type, with per-class counters for what a hit adds.

use crate::controller::{Controller, CtrlMsg, PacketInMsg};
use crate::faults::FaultPlan;
use crate::flowtable::{Action, FlowTables};
use crate::packet::{Field, Packet};
use crate::topology::{NodeRef, Topology};
use mpr_runtime::Prehashed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Per-link latency (simulated microseconds).
const LINK_LATENCY: u64 = 5;
/// Controller round-trip latency (simulated microseconds).
const CONTROLLER_LATENCY: u64 = 100;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// TTL: maximum switch hops per packet (loop guard). A `PacketOut`
    /// whose action is `Controller` punts its packet again and counts one
    /// hop, so a controller that always answers that way is stopped too.
    pub max_hops: u32,
    /// Scheduled fault plan (empty by default: injects nothing, and a run
    /// is bit-identical to one without the fault layer).
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { max_hops: 64, faults: FaultPlan::default() }
    }
}

/// Counters collected during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered, per destination host.
    pub delivered: BTreeMap<i64, u64>,
    /// Packets delivered, per (host, destination port).
    pub delivered_by_port: BTreeMap<(i64, i64), u64>,
    /// Packets that arrived at a host that was not their destination.
    pub misdelivered: u64,
    /// Drops: flow-table said drop.
    pub dropped_policy: u64,
    /// Drops: buffered at a miss and never released by the controller.
    pub dropped_buffered: u64,
    /// Drops: TTL exceeded.
    pub dropped_ttl: u64,
    /// Drops: packet emitted onto a link that was down per the fault plan.
    pub dropped_link_down: u64,
    /// Drops: packet arrived at a switch that was dark per the fault plan.
    pub dropped_switch_down: u64,
    /// Switch crashes applied (flow table wiped).
    pub switch_crashes: u64,
    /// Controller replies silently dropped by the fault plan.
    pub ctrl_dropped: u64,
    /// Controller replies duplicated by the fault plan.
    pub ctrl_duplicated: u64,
    /// Controller replies delivered late by the fault plan.
    pub ctrl_delayed: u64,
    /// Controller reply batches reversed by the fault plan.
    pub ctrl_reordered: u64,
    /// PacketIn messages sent to the controller.
    pub packet_ins: u64,
    /// FlowMods applied.
    pub flow_mods: u64,
    /// PacketOuts applied.
    pub packet_outs: u64,
    /// Total switch hops.
    pub hops: u64,
}

impl SimStats {
    /// Total packets delivered anywhere.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.values().sum()
    }

    /// Delivered count for one host.
    pub fn delivered_to(&self, host: i64) -> u64 {
        self.delivered.get(&host).copied().unwrap_or(0)
    }

    /// Delivered count for one (host, port).
    pub fn delivered_on(&self, host: i64, port: i64) -> u64 {
        self.delivered_by_port.get(&(host, port)).copied().unwrap_or(0)
    }

    /// Count `packet` arriving at `host`: delivered if it was addressed
    /// there, misdelivered otherwise.
    pub fn arrive(&mut self, host: i64, packet: &Packet) {
        if packet.dst_ip == host {
            *self.delivered.entry(host).or_insert(0) += 1;
            *self.delivered_by_port.entry((host, packet.dst_port)).or_insert(0) += 1;
        } else {
            self.misdelivered += 1;
        }
    }

    /// Add `other`'s counters `times` over to these, counter by counter and
    /// key by key. Addition commutes, so counters kept in parts (the joint
    /// backtest keeps one per set of candidates that shared an event, and
    /// one per repeated injection) sum to what one set bumped per event reads.
    pub fn add(&mut self, other: &SimStats, times: u64) {
        // Destructured in full: a counter added to the struct does not
        // compile until it is added here.
        #[rustfmt::skip]
        let SimStats {
            injected, delivered, delivered_by_port, misdelivered, dropped_policy, dropped_buffered,
            dropped_ttl, dropped_link_down, dropped_switch_down, switch_crashes,
            ctrl_dropped, ctrl_duplicated, ctrl_delayed, ctrl_reordered, packet_ins, flow_mods,
            packet_outs, hops,
        } = other;
        for (host, count) in delivered {
            *self.delivered.entry(*host).or_insert(0) += count * times;
        }
        for (key, count) in delivered_by_port {
            *self.delivered_by_port.entry(*key).or_insert(0) += count * times;
        }
        self.injected += injected * times;
        self.misdelivered += misdelivered * times;
        self.dropped_policy += dropped_policy * times;
        self.dropped_buffered += dropped_buffered * times;
        self.dropped_ttl += dropped_ttl * times;
        self.dropped_link_down += dropped_link_down * times;
        self.dropped_switch_down += dropped_switch_down * times;
        self.switch_crashes += switch_crashes * times;
        self.ctrl_dropped += ctrl_dropped * times;
        self.ctrl_duplicated += ctrl_duplicated * times;
        self.ctrl_delayed += ctrl_delayed * times;
        self.ctrl_reordered += ctrl_reordered * times;
        self.packet_ins += packet_ins * times;
        self.flow_mods += flow_mods * times;
        self.packet_outs += packet_outs * times;
        self.hops += hops * times;
    }
}

/// Where the packets a matched entry sends go: the half of a data plane
/// [`apply_actions`] leaves to its caller. `X` travels with every packet —
/// the simulator's hop count, or the set of candidates a joint backtest
/// forwards the packet for.
pub trait DataPlane<X: Copy> {
    /// The network the packets travel (a flood reads a switch's ports).
    fn topology(&self) -> &Topology;
    /// Send `packet` out of `switch`'s `out_port`.
    fn emit(&mut self, switch: i64, out_port: i64, packet: Packet, x: X);
    /// Hand `packet`, which reached `switch` on `in_port`, to the controller.
    fn punt(&mut self, switch: i64, in_port: i64, packet: Packet, x: X);
    /// Count a packet the flow table dropped.
    fn drop_policy(&mut self, x: X);
}

/// Apply a matched entry's `actions` (or a `PacketOut`'s one) to `packet`,
/// which reached `switch` on `in_port`: rewrite its fields, and emit, flood
/// or punt it through `plane`. `Drop`, or a list that emits nothing, is a
/// policy drop. The one interpretation of an action list: the simulator and
/// the joint backtest both forward through it.
pub fn apply_actions<X: Copy>(
    plane: &mut impl DataPlane<X>,
    switch: i64,
    in_port: i64,
    mut packet: Packet,
    actions: &[Action],
    x: X,
) {
    let mut emitted = false;
    for a in actions {
        match a {
            Action::Modify(f, v) => packet.set_field(*f, *v),
            Action::Output(p) => {
                plane.emit(switch, *p, packet.clone(), x);
                emitted = true;
            }
            Action::Flood => {
                // A port at a time: `plane` lends its topology, then emits.
                let mut i = 0;
                while let Some(p) = plane.topology().port_at(NodeRef::Switch(switch), i) {
                    i += 1;
                    if p != in_port {
                        plane.emit(switch, p, packet.clone(), x);
                    }
                }
                emitted = true;
            }
            Action::Drop => {
                plane.drop_policy(x);
                return;
            }
            Action::Controller => {
                plane.punt(switch, in_port, packet.clone(), x);
                emitted = true;
            }
        }
    }
    if !emitted {
        plane.drop_policy(x);
    }
}

/// The source host, then per [`Field::ALL`] entry the value read, or 0.
pub type InjectionKey = [i64; 1 + Field::ALL.len()];

/// A filed injection: what a hit adds, and the times it counts.
struct Filed<H> {
    key: InjectionKey,
    adds: H,
    times: u64,
}

/// Repeated injections answered without forwarding them, while a standing
/// state `S` holds; `H` is what one adds (module docs, "Repeated
/// injections").
pub struct InjectionMemo<H, S> {
    filed: Prehashed<Vec<Filed<H>>>,
    /// The hashes of the keys met so far: only a repeat is recorded.
    seen: Prehashed<()>,
    /// The standing state the entries were forwarded under.
    under: S,
}

impl<H, S: PartialEq> InjectionMemo<H, S> {
    /// An empty memo, standing under `under`.
    pub fn new(under: S) -> Self {
        InjectionMemo { filed: Prehashed::default(), seen: Prehashed::default(), under }
    }

    /// The key of `pkt` injected at `src`, reading the fields flagged in
    /// `read`, and its hash.
    pub fn key(&self, src: i64, pkt: &Packet, read: &[bool; Field::ALL.len()]) -> (u64, InjectionKey) {
        let mut key: InjectionKey = [src; 1 + Field::ALL.len()];
        for ((slot, f), read) in key[1..].iter_mut().zip(Field::ALL).zip(read) {
            *slot = if *read { pkt.field(f) } else { 0 };
        }
        // One multiply-rotate per word, then a finalizer for the bits a
        // hash map probes with; equal hashes are told apart by the key.
        let h = key.iter().fold(0u64, |h, &w| (h.rotate_left(5) ^ w as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
        let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        (h ^ (h >> 33), key)
    }

    /// Answer the injection of `key` from the memo, if it was filed under
    /// `now`: one more time for its entry, and what the entry adds. Entries
    /// filed under another state go to `flush` first.
    pub fn answer(&mut self, hash: u64, key: &InjectionKey, now: S, flush: impl FnMut(&H, u64)) -> Option<&H> {
        if self.under != now {
            self.flush(flush);
            self.under = now;
        }
        let entry = self.filed.get_mut(&hash)?.iter_mut().find(|e| e.key == *key)?;
        entry.times += 1;
        Some(&entry.adds)
    }

    /// Is this the first time the key of `hash` is met? Only a repeat is
    /// worth recording.
    pub fn first(&mut self, hash: u64) -> bool {
        self.seen.insert(hash, ()).is_none()
    }

    /// File a recorded injection: `adds` is what it did, and counts once.
    pub fn file(&mut self, hash: u64, key: InjectionKey, adds: H) {
        self.filed.entry(hash).or_default().push(Filed { key, adds, times: 1 });
    }

    /// Hand every entry to `f` with the times it counts, and empty the memo.
    pub fn flush(&mut self, mut f: impl FnMut(&H, u64)) {
        for entry in self.filed.drain().flat_map(|(_, entries)| entries) {
            f(&entry.adds, entry.times);
        }
    }
}

/// What a filed injection adds to a simulation.
struct Quiet {
    stats: SimStats,
    clock: u64,
    seqs: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Ev {
    time: u64,
    seq: u64,
    node: NodeRef,
    port: i64,
    hops: u32,
    packet: Packet,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A controller reply held back by the fault plan, waiting to be
/// delivered. Shares the global `next_seq` counter with [`Ev`], so
/// same-time ties between the packet and control queues break
/// deterministically.
#[derive(Debug, Clone)]
struct CtrlEv {
    time: u64,
    seq: u64,
    msg: CtrlMsg,
    in_port: i64,
    hops: u32,
}

impl PartialEq for CtrlEv {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for CtrlEv {}

impl Ord for CtrlEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for CtrlEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulator. Owns the network's flow tables and the controller;
/// shares the (immutable during a run) topology via `Arc` so backtests can
/// hand one network to many candidate replays without deep-copying it.
pub struct Simulation<C: Controller> {
    topo: Arc<Topology>,
    /// The network's flow tables (public for manual entry installation).
    pub tables: FlowTables,
    controller: C,
    cfg: SimConfig,
    /// The fault plan's RNG stream (control-channel chances).
    fault_rng: StdRng,
    queue: BinaryHeap<Ev>,
    /// Controller replies delayed by the fault plan.
    ctrl_queue: BinaryHeap<CtrlEv>,
    /// Scheduled crashes sorted by instant; `next_crash` indexes the first
    /// not yet applied (the wipe happens once, at the crash instant).
    crash_schedule: Vec<crate::faults::SwitchCrash>,
    next_crash: usize,
    next_seq: u64,
    clock: u64,
    /// Counters.
    pub stats: SimStats,
    /// Reusable controller-reply buffer (its [`DataPlane::punt`] hands it to
    /// `on_packet_in` instead of allocating a `Vec` per miss).
    reply_buf: Vec<CtrlMsg>,
    /// Reusable staging buffer for a matched entry's actions.
    action_buf: Vec<Action>,
    /// Injections put on the wire, and answered from the memo.
    forwarded: u64,
    answered: u64,
}

impl<C: Controller> Simulation<C> {
    /// Build a simulation. Accepts an owned [`Topology`] or a pre-shared
    /// `Arc<Topology>` (backtests reuse one network across candidates).
    pub fn new(topo: impl Into<Arc<Topology>>, controller: C, cfg: SimConfig) -> Self {
        let topo = topo.into();
        let tables = FlowTables::new(topo.clone());
        let fault_rng = StdRng::seed_from_u64(cfg.faults.seed);
        let mut crash_schedule = cfg.faults.crashes.clone();
        crash_schedule.sort_by_key(|c| (c.at, c.switch));
        Simulation {
            topo,
            tables,
            controller,
            cfg,
            fault_rng,
            queue: BinaryHeap::new(),
            ctrl_queue: BinaryHeap::new(),
            crash_schedule,
            next_crash: 0,
            next_seq: 0,
            clock: 0,
            stats: SimStats::default(),
            reply_buf: Vec::new(),
            action_buf: Vec::new(),
            forwarded: 0,
            answered: 0,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The controller.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// Mutable controller access (seeding state between runs).
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Injections of an attached host that were forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Injections [`Self::run_workload`] answered from its memo, forwarding
    /// nothing. With [`Self::forwarded`] they add up to `stats.injected`.
    pub fn answered(&self) -> u64 {
        self.answered
    }

    /// Install shortest-path `DstIp → Output` routes on every switch for
    /// every host — the "proactively configured core" of §5.2. Entries get
    /// priority 1 so reactive (priority ≥ 10) policies override them.
    pub fn install_proactive_routes(&mut self) {
        self.tables.install_proactive_routes();
    }

    /// Inject a packet from `host` into the network.
    pub fn inject(&mut self, host: i64, packet: Packet) {
        let Some((sw, sw_port)) = self.topo.host_attachment(host) else {
            return;
        };
        self.stats.injected += 1;
        self.forwarded += 1;
        if !self.cfg.faults.is_empty()
            && self.cfg.faults.link_down(NodeRef::Host(host), NodeRef::Switch(sw), self.clock)
        {
            self.stats.dropped_link_down += 1;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Ev {
            time: self.clock + LINK_LATENCY,
            seq,
            node: NodeRef::Switch(sw),
            port: sw_port,
            hops: 0,
            packet,
        });
    }

    /// [`Self::inject`] each packet of `workload` and [`Self::run`] it to a
    /// drained queue, answering a repeat that can do nothing new from the
    /// memo (module docs, "Repeated injections"). The counters, the clock
    /// and the controller end as those calls would leave them.
    pub fn run_workload(&mut self, workload: &[(i64, Packet)]) {
        let mut memo: InjectionMemo<Quiet, u64> = InjectionMemo::new(self.tables.installs());
        for (src, pkt) in workload {
            let mut record = None;
            if self.cfg.faults.is_empty() && self.queue.is_empty() && self.ctrl_queue.is_empty() {
                let mut read = self.tables.matched_fields();
                read[Field::DstIp as usize] = true;
                read[Field::DstPort as usize] = true;
                let (hash, key) = memo.key(*src, pkt, &read);
                if memo.answer(hash, &key, self.tables.installs(), |q, times| self.settle(q, times)).is_some() {
                    self.answered += 1;
                    continue;
                }
                // A repeat runs against zeroed counters: what it leaves
                // there, and its clock and sequence advance, is what it adds.
                if !memo.first(hash) {
                    let installs = self.tables.installs();
                    record = Some((hash, key, std::mem::take(&mut self.stats), self.clock, self.next_seq, installs));
                }
            }
            self.inject(*src, pkt.clone());
            self.run();
            let Some((hash, key, stats, clock, seq, installs)) = record else { continue };
            let stats = std::mem::replace(&mut self.stats, stats);
            if stats.packet_ins == 0 && stats.injected == 1 && self.tables.installs() == installs {
                let quiet = Quiet { stats, clock: self.clock - clock, seqs: self.next_seq - seq };
                (self.clock, self.next_seq) = (clock, seq);
                memo.file(hash, key, quiet);
            } else {
                self.stats.add(&stats, 1);
            }
        }
        memo.flush(|q, times| self.settle(q, times));
    }

    /// Add what a filed injection adds, `times` over.
    fn settle(&mut self, q: &Quiet, times: u64) {
        self.stats.add(&q.stats, times);
        self.clock += q.clock * times;
        self.next_seq += q.seqs * times;
    }

    /// Run until both the packet queue and the delayed-control queue
    /// drain. Returns the number of events processed.
    pub fn run(&mut self) -> u64 {
        let mut processed = 0;
        loop {
            // Merge the two time-ordered queues; the shared `next_seq`
            // counter breaks same-time ties deterministically.
            let next_pkt = self.queue.peek().map(|e| (e.time, e.seq));
            let next_ctrl = self.ctrl_queue.peek().map(|e| (e.time, e.seq));
            let take_ctrl = match (next_pkt, next_ctrl) {
                (None, None) => break,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some(p), Some(c)) => c < p,
            };
            processed += 1;
            if take_ctrl {
                let Some(ev) = self.ctrl_queue.pop() else { break };
                self.clock = self.clock.max(ev.time);
                self.apply_due_crashes();
                let mut released = false;
                self.deliver_ctrl(ev.msg, ev.in_port, ev.hops, &mut released);
            } else {
                let Some(ev) = self.queue.pop() else { break };
                self.clock = self.clock.max(ev.time);
                self.apply_due_crashes();
                match ev.node {
                    NodeRef::Host(h) => self.stats.arrive(h, &ev.packet),
                    NodeRef::Switch(s) => self.arrive_switch(s, ev.port, ev.hops, ev.packet),
                }
            }
        }
        processed
    }

    /// Wipe the flow table of every switch whose crash instant has been
    /// reached. The wipe happens exactly once per crash; while the crash
    /// window lasts, arriving packets are dropped by [`Self::arrive_switch`].
    fn apply_due_crashes(&mut self) {
        while let Some(c) = self.crash_schedule.get(self.next_crash) {
            if c.at > self.clock {
                break;
            }
            self.tables.clear(c.switch);
            self.stats.switch_crashes += 1;
            self.next_crash += 1;
        }
    }

    fn arrive_switch(&mut self, switch: i64, in_port: i64, hops: u32, packet: Packet) {
        if !self.cfg.faults.is_empty() && self.cfg.faults.switch_down(switch, self.clock) {
            self.stats.dropped_switch_down += 1;
            return;
        }
        if hops >= self.cfg.max_hops {
            self.stats.dropped_ttl += 1;
            return;
        }
        self.stats.hops += 1;
        // Stage the matched entry's actions through the reusable buffer
        // (`Action` is `Copy`) instead of cloning the whole `FlowEntry`.
        let mut actions = std::mem::take(&mut self.action_buf);
        actions.clear();
        let hit = match self.tables.lookup(switch, &packet, in_port) {
            Some(e) => {
                actions.extend_from_slice(&e.actions);
                true
            }
            None => false,
        };
        if hit {
            apply_actions(self, switch, in_port, packet, &actions, hops);
        } else {
            self.punt(switch, in_port, packet, hops);
        }
        actions.clear();
        self.action_buf = actions;
    }

    /// Deliver one controller reply to its switch. A reply addressed to a
    /// switch that is dark per the fault plan is lost (the control
    /// connection is down with everything else).
    fn deliver_ctrl(&mut self, msg: CtrlMsg, in_port: i64, hops: u32, released: &mut bool) {
        match msg {
            CtrlMsg::FlowMod { switch: sw, entry } => {
                if !self.cfg.faults.is_empty() && self.cfg.faults.switch_down(sw, self.clock) {
                    self.stats.ctrl_dropped += 1;
                    return;
                }
                self.stats.flow_mods += 1;
                self.tables.install(sw, entry);
            }
            CtrlMsg::PacketOut { switch: sw, packet: p, action } => {
                if !self.cfg.faults.is_empty() && self.cfg.faults.switch_down(sw, self.clock) {
                    self.stats.dropped_switch_down += 1;
                    return;
                }
                self.stats.packet_outs += 1;
                *released = true;
                // A reply that punts again counts a hop (`SimConfig::max_hops`).
                let hops = hops + u32::from(action == Action::Controller);
                if hops >= self.cfg.max_hops {
                    self.stats.dropped_ttl += 1;
                    return;
                }
                apply_actions(self, sw, in_port, p, &[action], hops);
            }
        }
    }
}

/// The simulator's packets carry their hop count.
impl<C: Controller> DataPlane<u32> for Simulation<C> {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn emit(&mut self, switch: i64, out_port: i64, packet: Packet, hops: u32) {
        let Some((peer, peer_port)) = self.topo.peer(NodeRef::Switch(switch), out_port) else {
            self.stats.dropped_policy += 1;
            return;
        };
        if !self.cfg.faults.is_empty()
            && self.cfg.faults.link_down(NodeRef::Switch(switch), peer, self.clock)
        {
            self.stats.dropped_link_down += 1;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Ev {
            time: self.clock + LINK_LATENCY,
            seq,
            node: peer,
            port: peer_port,
            hops: hops + 1,
            packet,
        });
    }

    /// Miss: buffer the packet, consult the controller, apply its answer.
    fn punt(&mut self, switch: i64, in_port: i64, packet: Packet, hops: u32) {
        self.stats.packet_ins += 1;
        let msg = PacketInMsg { switch, in_port, packet };
        // Reuse the reply buffer across punts; a reentrant punt (via
        // `Action::Controller`) just takes a fresh default, so this is
        // allocation-free on the common path and still correct nested.
        let mut replies = std::mem::take(&mut self.reply_buf);
        replies.clear();
        self.controller.on_packet_in(&msg, &mut replies);
        self.clock += CONTROLLER_LATENCY;
        let ctrl = self.cfg.faults.ctrl;
        let mut released = false;
        if ctrl.is_noop() {
            for r in replies.drain(..) {
                self.deliver_ctrl(r, in_port, hops, &mut released);
            }
        } else {
            if ctrl.reorder && replies.len() > 1 && self.fault_rng.gen::<f64>() < 0.5 {
                replies.reverse();
                self.stats.ctrl_reordered += 1;
            }
            for r in replies.drain(..) {
                if ctrl.drop_chance > 0.0 && self.fault_rng.gen::<f64>() < ctrl.drop_chance {
                    self.stats.ctrl_dropped += 1;
                    continue;
                }
                let copies = if ctrl.dup_chance > 0.0
                    && self.fault_rng.gen::<f64>() < ctrl.dup_chance
                {
                    self.stats.ctrl_duplicated += 1;
                    2
                } else {
                    1
                };
                for _ in 0..copies {
                    if ctrl.delay_chance > 0.0
                        && self.fault_rng.gen::<f64>() < ctrl.delay_chance
                    {
                        self.stats.ctrl_delayed += 1;
                        let delay = if ctrl.delay_max > ctrl.delay_min {
                            self.fault_rng.gen_range(ctrl.delay_min..=ctrl.delay_max)
                        } else {
                            ctrl.delay_min
                        };
                        // A delayed PacketOut still releases the buffered
                        // packet, just late — don't count dropped_buffered.
                        if matches!(r, CtrlMsg::PacketOut { .. }) {
                            released = true;
                        }
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        self.ctrl_queue.push(CtrlEv {
                            time: self.clock + delay.max(1),
                            seq,
                            msg: r.clone(),
                            in_port,
                            hops,
                        });
                    } else {
                        self.deliver_ctrl(r.clone(), in_port, hops, &mut released);
                    }
                }
            }
        }
        if !released {
            // OpenFlow buffered-miss semantics: without a PacketOut the
            // buffered packet never leaves the switch. Scenario Q4 lives
            // here. The *flow entries* just installed will serve future
            // packets, not this one.
            self.stats.dropped_buffered += 1;
        }
        self.reply_buf = replies;
    }

    fn drop_policy(&mut self, _: u32) {
        self.stats.dropped_policy += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{NullController, TupleCodec};
    use crate::flowtable::{FlowEntry, Match};
    use crate::packet::Field;
    use crate::topology::{fig1, fig1_hosts};

    fn http_to(dst: i64, seq: u64) -> Packet {
        Packet::http(seq, fig1_hosts::INTERNET, dst)
    }

    #[test]
    fn proactive_routes_deliver_end_to_end() {
        let mut sim = Simulation::new(fig1(), NullController, SimConfig::default());
        sim.install_proactive_routes();
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H2, 2));
        sim.run();
        assert_eq!(sim.stats.delivered_to(fig1_hosts::H1), 1);
        assert_eq!(sim.stats.delivered_to(fig1_hosts::H2), 1);
        assert_eq!(sim.stats.misdelivered, 0);
        assert_eq!(sim.stats.packet_ins, 0);
    }

    #[test]
    fn miss_without_packet_out_drops_buffered_packet() {
        // Null controller: every miss is buffered forever (Q4 semantics).
        let mut sim = Simulation::new(fig1(), NullController, SimConfig::default());
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        assert_eq!(sim.stats.packet_ins, 1);
        assert_eq!(sim.stats.dropped_buffered, 1);
        assert_eq!(sim.stats.total_delivered(), 0);
    }

    #[test]
    fn ndlog_controller_installs_flows_in_sim() {
        use crate::controller::NdlogController;
        // S1 sends HTTP out of port 1 (toward S2→H1); S2 delivers on port 1.
        let program = mpr_ndlog::parse_program(
            "mini",
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 80, Prt := 1.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            ",
        )
        .unwrap();
        let ctrl = NdlogController::new(program, TupleCodec::fig2()).unwrap();
        let mut sim = Simulation::new(fig1(), ctrl, SimConfig::default());
        // First packet: miss at S1 installs that switch's entry, but the
        // packet itself is dropped (no PacketOut rules). Second packet
        // rides S1's entry, then misses at S2 — installing S2's entry and
        // dying there. The third packet finally flows end to end. This
        // per-hop warm-up is faithful OpenFlow reactive behavior.
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        assert_eq!(sim.stats.delivered_to(fig1_hosts::H1), 0);
        assert_eq!(sim.stats.flow_mods, 1);
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 2));
        sim.run();
        assert_eq!(sim.stats.delivered_to(fig1_hosts::H1), 0);
        assert_eq!(sim.stats.flow_mods, 2);
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 3));
        sim.run();
        assert_eq!(sim.stats.delivered_to(fig1_hosts::H1), 1);
        assert_eq!(sim.stats.dropped_buffered, 2);
    }

    #[test]
    fn policy_drop_and_modify_actions() {
        let mut sim = Simulation::new(fig1(), NullController, SimConfig::default());
        // S1: rewrite DstIp to H2 then forward via proactive routes.
        sim.install_proactive_routes();
        let e = FlowEntry::new(
            50,
            Match::any().with(Field::DstPort, 80),
            vec![Action::Modify(Field::DstIp, fig1_hosts::H2), Action::Output(2)],
        );
        sim.tables.install(1, e);
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        // Rewritten to H2 and delivered there.
        assert_eq!(sim.stats.delivered_to(fig1_hosts::H2), 1);
        assert_eq!(sim.stats.misdelivered, 0);

        // Drop policy.
        let e = FlowEntry::new(99, Match::any(), vec![Action::Drop]);
        sim.tables.install(1, e);
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 2));
        sim.run();
        assert_eq!(sim.stats.dropped_policy, 1);
    }

    #[test]
    fn flood_reaches_all_neighbors_except_ingress() {
        let mut sim = Simulation::new(fig1(), NullController, SimConfig::default());
        let e = FlowEntry::new(10, Match::any(), vec![Action::Flood]);
        for sw in sim.topology().switches.to_vec() {
            sim.tables.install(sw, e.clone());
        }
        // Broadcast storms are bounded by the TTL guard.
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H2, 1));
        sim.run();
        assert!(sim.stats.dropped_ttl > 0 || sim.stats.delivered_to(fig1_hosts::H2) > 0);
    }

    #[test]
    fn controller_action_punts_and_an_entry_that_emits_nothing_drops() {
        // A hit on a `Controller` entry is a punt like a miss: the null
        // controller releases nothing, so the packet dies buffered.
        let mut sim = Simulation::new(fig1(), NullController, SimConfig::default());
        sim.tables.install(1, FlowEntry::new(10, Match::any(), vec![Action::Controller]));
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        assert_eq!((sim.stats.hops, sim.stats.packet_ins, sim.stats.dropped_buffered), (1, 1, 1));
        // An entry that only rewrites sends the packet nowhere: a policy drop.
        sim.tables.install(1, FlowEntry::new(20, Match::any(), vec![Action::Modify(Field::DstPort, 81)]));
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 2));
        sim.run();
        assert_eq!((sim.stats.packet_ins, sim.stats.dropped_policy), (1, 1));
    }

    /// Minimal reactive controller: on every miss, install `Output(1)` on
    /// the missing switch and release the packet the same way. On fig1
    /// that chains S1 → S2 → H1.
    struct EchoController;

    impl Controller for EchoController {
        fn on_packet_in(&mut self, msg: &PacketInMsg, out: &mut Vec<CtrlMsg>) {
            out.push(CtrlMsg::FlowMod {
                switch: msg.switch,
                entry: FlowEntry::new(10, Match::any(), vec![Action::Output(1)]),
            });
            out.push(CtrlMsg::PacketOut {
                switch: msg.switch,
                packet: msg.packet.clone(),
                action: Action::Output(1),
            });
        }
    }

    /// Answers every punt by sending the packet back to itself.
    struct RepuntController;

    impl Controller for RepuntController {
        fn on_packet_in(&mut self, msg: &PacketInMsg, out: &mut Vec<CtrlMsg>) {
            out.push(CtrlMsg::PacketOut { switch: msg.switch, packet: msg.packet.clone(), action: Action::Controller });
        }
    }

    #[test]
    fn a_reply_that_punts_again_counts_a_hop_until_the_ttl_drops_it() {
        use crate::faults::{CtrlFaults, FaultPlan};
        // S1 punts at hop 0; each `PacketOut(Controller)` punts again one
        // hop on, and the reply that would punt at `max_hops` is dropped.
        let mut sim = Simulation::new(fig1(), RepuntController, SimConfig::default());
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        let s = &sim.stats;
        assert_eq!((s.hops, s.packet_ins, s.packet_outs, s.dropped_ttl, s.dropped_buffered), (1, 64, 64, 1, 0));
        // The same bound holds when every reply is delayed: the queued
        // reply carries its hop count.
        let faults = FaultPlan { ctrl: CtrlFaults { delay_chance: 1.0, ..CtrlFaults::default() }, ..FaultPlan::default() };
        let mut sim = Simulation::new(fig1(), RepuntController, SimConfig { max_hops: 5, faults });
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        let s = &sim.stats;
        assert_eq!((s.packet_ins, s.ctrl_delayed, s.dropped_ttl, s.dropped_buffered), (5, 5, 1, 0));
    }

    #[test]
    fn link_down_window_drops_then_recovers() {
        use crate::faults::{FaultPlan, LinkFault};
        let faults = FaultPlan {
            links: vec![LinkFault::down(NodeRef::Switch(1), NodeRef::Switch(2), 0, 6)],
            ..FaultPlan::default()
        };
        let cfg = SimConfig { faults, ..SimConfig::default() };
        let mut sim = Simulation::new(fig1(), NullController, cfg);
        sim.install_proactive_routes();
        // First packet reaches S1 at t=5, inside the outage: dropped on
        // the S1→S2 hop.
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        assert_eq!(sim.stats.dropped_link_down, 1);
        assert_eq!(sim.stats.total_delivered(), 0);
        // Clock is past the window now: the link is back.
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 2));
        sim.run();
        assert_eq!(sim.stats.dropped_link_down, 1);
        assert_eq!(sim.stats.delivered_to(fig1_hosts::H1), 1);
    }

    #[test]
    fn switch_crash_wipes_table_and_drops_while_dark() {
        use crate::faults::{FaultPlan, SwitchCrash};
        let faults = FaultPlan {
            crashes: vec![SwitchCrash { switch: 2, at: 0, down_for: 20 }],
            ..FaultPlan::default()
        };
        let cfg = SimConfig { faults, ..SimConfig::default() };
        let mut sim = Simulation::new(fig1(), NullController, cfg);
        sim.install_proactive_routes();
        assert!(sim.tables.get(&2).is_some_and(|t| !t.is_empty()));
        // Packet reaches S2 at t=10, inside the dark window.
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        assert_eq!(sim.stats.switch_crashes, 1);
        assert_eq!(sim.stats.dropped_switch_down, 1);
        assert!(sim.tables.get(&2).is_none(), "crash wipes the flow table");
        // After restart the table is empty: the next packet misses and,
        // with a null controller, dies buffered — recovery is the
        // controller's job, not the switch's.
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 2));
        sim.run();
        assert_eq!(sim.stats.dropped_switch_down, 1);
        assert_eq!(sim.stats.dropped_buffered, 1);
    }

    #[test]
    fn ctrl_drop_loses_flowmods_and_strands_buffered_packets() {
        use crate::faults::{CtrlFaults, FaultPlan};
        let faults = FaultPlan {
            ctrl: CtrlFaults { drop_chance: 1.0, ..CtrlFaults::default() },
            ..FaultPlan::default()
        };
        let cfg = SimConfig { faults, ..SimConfig::default() };
        let mut sim = Simulation::new(fig1(), EchoController, cfg);
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        assert_eq!(sim.stats.ctrl_dropped, 2, "FlowMod and PacketOut both lost");
        assert_eq!(sim.stats.flow_mods, 0);
        assert_eq!(sim.stats.dropped_buffered, 1);
        assert_eq!(sim.stats.total_delivered(), 0);
    }

    #[test]
    fn delayed_ctrl_messages_still_deliver() {
        use crate::faults::{CtrlFaults, FaultPlan};
        let faults = FaultPlan {
            ctrl: CtrlFaults {
                delay_chance: 1.0,
                delay_min: 3,
                delay_max: 9,
                ..CtrlFaults::default()
            },
            ..FaultPlan::default()
        };
        let cfg = SimConfig { faults, ..SimConfig::default() };
        let mut sim = Simulation::new(fig1(), EchoController, cfg);
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        // Both switches punt; each punt's FlowMod + PacketOut arrive late
        // but arrive: the packet still lands.
        assert_eq!(sim.stats.ctrl_delayed, 4);
        assert_eq!(sim.stats.delivered_to(fig1_hosts::H1), 1);
        assert_eq!(sim.stats.dropped_buffered, 0);
        assert_eq!(sim.stats.flow_mods, 2);
    }

    #[test]
    fn duplicated_flowmods_are_idempotent() {
        use crate::faults::{CtrlFaults, FaultPlan};
        let faults = FaultPlan {
            ctrl: CtrlFaults { dup_chance: 1.0, ..CtrlFaults::default() },
            ..FaultPlan::default()
        };
        let cfg = SimConfig { faults, ..SimConfig::default() };
        let mut sim = Simulation::new(fig1(), EchoController, cfg);
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        assert!(sim.stats.ctrl_duplicated >= 2);
        // Duplicate FlowMods re-install the same entry; duplicate
        // PacketOuts emit an extra copy, which is at worst delivered twice.
        assert!(sim.stats.delivered_to(fig1_hosts::H1) >= 1);
    }

    #[test]
    fn empty_plan_matches_no_plan_bit_for_bit() {
        // The fault layer disabled must not perturb anything, whatever
        // seed its (unused) RNG stream is given.
        let base = SimConfig::default();
        let run = |cfg: SimConfig| {
            let mut sim = Simulation::new(fig1(), NullController, cfg);
            sim.install_proactive_routes();
            for i in 0..50 {
                sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, i));
            }
            sim.run();
            sim.stats
        };
        let with_default_plan = SimConfig {
            faults: crate::faults::FaultPlan { seed: 999, ..Default::default() },
            ..base.clone()
        };
        assert_eq!(run(base), run(with_default_plan));
    }

    #[test]
    fn the_workload_loop_stands_aside_under_a_fault_plan() {
        use crate::faults::{FaultPlan, LinkFault};
        let workload: Vec<(i64, Packet)> = (0..50).map(|i| (fig1_hosts::INTERNET, http_to(fig1_hosts::H1, i))).collect();
        let run = |cfg: &SimConfig, memo: bool| {
            let mut sim = Simulation::new(fig1(), NullController, cfg.clone());
            sim.install_proactive_routes();
            if memo {
                sim.run_workload(&workload);
            } else {
                for (src, pkt) in &workload {
                    sim.inject(*src, pkt.clone());
                    sim.run();
                }
            }
            let (now, answered) = (sim.now(), sim.answered());
            (sim.stats, now, answered)
        };
        let flap = LinkFault::flap(NodeRef::Switch(1), NodeRef::Switch(2), 0, 400, 30);
        let faulty = SimConfig { faults: FaultPlan { links: vec![flap], ..FaultPlan::default() }, ..SimConfig::default() };
        let (stats, now, answered) = run(&faulty, true);
        assert_eq!(answered, 0);
        assert!(stats.dropped_link_down > 0 && stats.total_delivered() > 0, "{stats:?}");
        assert_eq!((stats, now, 0), run(&faulty, false));
        // Without the plan, the first packet is forwarded, the second filed
        // and the rest answered.
        let plain = SimConfig::default();
        let (stats, now, answered) = run(&plain, true);
        assert_eq!(answered, 48);
        assert_eq!((stats, now, 0), run(&plain, false));
    }

    #[test]
    fn ttl_guard_stops_forwarding_loops() {
        let mut sim = Simulation::new(fig1(), NullController, SimConfig::default());
        // S2 and S3 bounce packets to each other forever (S2 port2 ↔ S3
        // port3).
        sim.tables.install(2, FlowEntry::new(10, Match::any(), vec![Action::Output(2)]));
        sim.tables.install(3, FlowEntry::new(10, Match::any(), vec![Action::Output(3)]));
        sim.tables.install(1, FlowEntry::new(10, Match::any(), vec![Action::Output(1)]));
        sim.inject(fig1_hosts::INTERNET, http_to(fig1_hosts::H1, 1));
        sim.run();
        assert_eq!(sim.stats.dropped_ttl, 1);
        assert_eq!(sim.stats.total_delivered(), 0);
    }
}
