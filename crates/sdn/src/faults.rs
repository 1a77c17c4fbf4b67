//! Deterministic fault injection: the network failures of §5 re-created
//! on a seeded schedule.
//!
//! A [`FaultPlan`] is a pure value — cloneable, comparable, and owned
//! by [`crate::SimConfig`] — describing *when* links go down or flap,
//! *when* switches crash (flow-table wipe + restart), and *how* the
//! control channel misbehaves (drop / duplicate / reorder / delay). The
//! simulator's one RNG stream is the plan's, seeded from
//! [`FaultPlan::seed`] and drawn only when a control-channel fault can
//! fire: a run with an empty plan is bit-identical to a run on a build
//! without this module.
//!
//! Everything here is time-driven off the simulator's virtual clock, so
//! the same `(plan, workload)` pair always yields the same
//! [`crate::SimStats`] — the property the chaos harness and the pinned
//! regression scenarios rely on.

use crate::topology::NodeRef;

/// A half-open window of simulated time `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant (inclusive) at which the fault is active.
    pub from: u64,
    /// First instant (exclusive) at which the fault has cleared.
    pub until: u64,
}

impl Window {
    /// Does this window cover `t`?
    pub fn contains(&self, t: u64) -> bool {
        self.from <= t && t < self.until
    }
}

/// A link fault: the (undirected) link between `a` and `b` is dead during
/// each listed window. Packets emitted onto a dead link are dropped and
/// counted in [`crate::SimStats::dropped_link_down`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// One endpoint.
    pub a: NodeRef,
    /// The other endpoint (order does not matter).
    pub b: NodeRef,
    /// When the link is down.
    pub windows: Vec<Window>,
}

impl LinkFault {
    /// A single outage: the link is down for `[from, until)`.
    pub fn down(a: NodeRef, b: NodeRef, from: u64, until: u64) -> Self {
        LinkFault { a, b, windows: vec![Window { from, until }] }
    }

    /// A flapping link: alternating down/up windows of length `period`
    /// starting down at `from`, clipped to `until`.
    pub fn flap(a: NodeRef, b: NodeRef, from: u64, until: u64, period: u64) -> Self {
        let period = period.max(1);
        let mut windows = Vec::new();
        let mut t = from;
        while t < until {
            windows.push(Window { from: t, until: (t + period).min(until) });
            t += 2 * period;
        }
        LinkFault { a, b, windows }
    }

    /// Is the link `{x, y}` affected by this fault at time `t`?
    pub fn hits(&self, x: NodeRef, y: NodeRef, t: u64) -> bool {
        let same = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        same && self.windows.iter().any(|w| w.contains(t))
    }
}

/// A switch crash: at time `at` the switch loses its entire flow table
/// (OpenFlow state is not persistent) and stays dark for `down_for`
/// ticks. It restarts with an *empty* table — recovery is the
/// controller's job, which is exactly what the chaos harness probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchCrash {
    /// The switch that crashes.
    pub switch: i64,
    /// Crash instant.
    pub at: u64,
    /// Length of the dark window; the switch accepts traffic again at
    /// `at + down_for`.
    pub down_for: u64,
}

impl SwitchCrash {
    /// Is the switch dark at time `t`?
    pub fn covers(&self, t: u64) -> bool {
        self.at <= t && t < self.at + self.down_for
    }
}

/// Control-channel misbehavior, applied per controller reply with the
/// plan's dedicated RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrlFaults {
    /// Probability a reply (FlowMod or PacketOut) is silently lost.
    pub drop_chance: f64,
    /// Probability a reply is delivered twice.
    pub dup_chance: f64,
    /// Probability a reply is held back and delivered later.
    pub delay_chance: f64,
    /// Minimum extra delay (simulated ticks) for a delayed reply.
    pub delay_min: u64,
    /// Maximum extra delay (inclusive) for a delayed reply.
    pub delay_max: u64,
    /// Randomly reverse the reply batch of a single PacketIn, so a
    /// PacketOut can overtake the FlowMod it depends on (and vice versa).
    pub reorder: bool,
}

impl Default for CtrlFaults {
    fn default() -> Self {
        CtrlFaults {
            drop_chance: 0.0,
            dup_chance: 0.0,
            delay_chance: 0.0,
            delay_min: 1,
            delay_max: 1,
            reorder: false,
        }
    }
}

impl CtrlFaults {
    /// True when no control-channel fault can ever fire.
    pub fn is_noop(&self) -> bool {
        self.drop_chance <= 0.0 && self.dup_chance <= 0.0 && self.delay_chance <= 0.0 && !self.reorder
    }
}

/// A complete, seeded fault schedule. The default plan is empty and
/// injects nothing; [`FaultPlan::is_empty`] gates every fault check in
/// the simulator, so the disabled layer costs one branch per event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's RNG stream (control-channel chances).
    pub seed: u64,
    /// Scheduled link outages and flaps.
    pub links: Vec<LinkFault>,
    /// Scheduled switch crashes.
    pub crashes: Vec<SwitchCrash>,
    /// Control-channel misbehavior.
    pub ctrl: CtrlFaults,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.crashes.is_empty() && self.ctrl.is_noop()
    }

    /// Is the (undirected) link `{x, y}` down at time `t`?
    pub fn link_down(&self, x: NodeRef, y: NodeRef, t: u64) -> bool {
        self.links.iter().any(|f| f.hits(x, y, t))
    }

    /// Is `switch` dark at time `t`?
    pub fn switch_down(&self, switch: i64, t: u64) -> bool {
        self.crashes.iter().any(|c| c.switch == switch && c.covers(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_alternates_and_clips() {
        let f = LinkFault::flap(NodeRef::Switch(1), NodeRef::Switch(2), 10, 45, 10);
        assert_eq!(
            f.windows,
            vec![Window { from: 10, until: 20 }, Window { from: 30, until: 40 }]
        );
        assert!(f.hits(NodeRef::Switch(2), NodeRef::Switch(1), 15));
        assert!(!f.hits(NodeRef::Switch(1), NodeRef::Switch(2), 25));
        assert!(!f.hits(NodeRef::Switch(1), NodeRef::Switch(3), 15));
    }

    #[test]
    fn crash_window_is_half_open() {
        let c = SwitchCrash { switch: 4, at: 100, down_for: 50 };
        assert!(!c.covers(99));
        assert!(c.covers(100));
        assert!(c.covers(149));
        assert!(!c.covers(150));
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        let plan = FaultPlan {
            crashes: vec![SwitchCrash { switch: 1, at: 0, down_for: 1 }],
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty());
    }
}
