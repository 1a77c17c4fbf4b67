//! The four workloads: what one operation is, how its inputs are made from
//! the seed, and what a correct output looks like.

use crate::repair::ScenarioGolden;
use mpr_core::scenarios::Scenario;
use mpr_runtime::{Durability, Options, WalOptions};
use mpr_sdn::controller::{Controller, CtrlMsg, NdlogController, PacketInMsg};
use mpr_sdn::packet::{Packet, Proto};
use mpr_sdn::topology::fabric_ids::HOST_BASE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

/// The seed the goldens were written at. On any other seed only the
/// seed-independent part of an output is checked.
pub const GOLDEN_SEED: u64 = 1;

/// A benchmark workload. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scenario diversity: Q1–Q5, Fig7, Q1-trema, Q1-pyretic per round.
    QSuite,
    /// Program size: Q1 padded to 900 rules.
    Prog900,
    /// Network size: Q1 grafted onto a 10 130-switch fat-tree.
    Fabric10k,
    /// The live controller recording history, 250 k packet-ins per pass.
    PacketinStream,
}

impl Workload {
    /// Every workload, in the order blocks are interleaved.
    pub const ALL: [Workload; 4] = [
        Workload::QSuite,
        Workload::Prog900,
        Workload::Fabric10k,
        Workload::PacketinStream,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QSuite => "q-suite",
            Workload::Prog900 => "prog-900",
            Workload::Fabric10k => "fabric-10k",
            Workload::PacketinStream => "packetin-stream",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}` (have: q-suite, prog-900, fabric-10k, packetin-stream)"))
    }

    /// Repairs completed by one operation (a `q-suite` round is eight).
    pub fn repairs_per_op(self) -> usize {
        match self {
            Workload::QSuite => 8,
            Workload::Prog900 | Workload::Fabric10k => 1,
            Workload::PacketinStream => 0,
        }
    }

    fn golden_text(self) -> &'static str {
        match self {
            Workload::QSuite => include_str!("../golden/q-suite.json"),
            Workload::Prog900 => include_str!("../golden/prog-900.json"),
            Workload::Fabric10k => include_str!("../golden/fabric-10k.json"),
            Workload::PacketinStream => include_str!("../golden/packetin-stream.json"),
        }
    }

    fn golden(self) -> Value {
        serde_json::from_str(self.golden_text())
            .unwrap_or_else(|e| panic!("golden/{}.json: {e}", self.name()))
    }
}

// ---------------------------------------------------------------------------
// Repair workloads
// ---------------------------------------------------------------------------

/// Inputs of a repair workload: the scenarios one operation runs, each
/// with its golden, and the seeded order they run in.
pub struct RepairInputs {
    /// The scenarios of one operation.
    pub scenarios: Vec<Scenario>,
    /// `goldens[i]` pins `scenarios[i]`.
    pub goldens: Vec<ScenarioGolden>,
    /// Compare accepted lists too (the goldens' own seed).
    pub full_check: bool,
    /// Milliseconds spent building topologies (fat-tree plus grafting).
    pub topology_build_ms: f64,
    rng: StdRng,
}

impl RepairInputs {
    /// Build the workload's scenarios from `seed`.
    pub fn build(workload: Workload, seed: u64) -> RepairInputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Instant::now();
        let scenarios = match workload {
            Workload::QSuite => {
                let q1 = Scenario::q1_copy_paste();
                let mut all = Scenario::all();
                all.push(Scenario::fig7_harmful_entry());
                all.push(q1.trema_variant());
                all.push(q1.pyretic_variant().expect("Q1 has a Pyretic port"));
                all
            }
            Workload::Prog900 => vec![Scenario::q1_padded(900)],
            Workload::Fabric10k => vec![fabric_scenario(&mut rng)],
            Workload::PacketinStream => unreachable!("packetin-stream has no repair inputs"),
        };
        let topology_build_ms = t.elapsed().as_secs_f64() * 1e3;
        let golden = workload.golden();
        let goldens = scenarios
            .iter()
            .map(|s| scenario_golden(&golden, workload, &s.id))
            .collect();
        RepairInputs {
            scenarios,
            goldens,
            full_check: seed == GOLDEN_SEED,
            topology_build_ms,
            rng,
        }
    }

    /// The order the next operation visits the scenarios in: a seeded
    /// shuffle, so neighbours in the instruction stream vary by round.
    pub fn next_order(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.scenarios.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.gen_range(0..=i));
        }
        order
    }
}

/// `Scenario::q1_on_fabric(10_000)` with the destination of every
/// background flow drawn from the seed. The flows are ICMP between fabric
/// hosts; nothing in the Q1 program matches them, so the accepted repairs
/// do not depend on the draw, only the simulator's work does.
fn fabric_scenario(rng: &mut StdRng) -> Scenario {
    let mut s = Scenario::q1_on_fabric(10_000);
    let hosts: Vec<i64> = s
        .topology
        .hosts
        .iter()
        .copied()
        .filter(|h| *h >= HOST_BASE)
        .collect();
    for (src, pkt) in s
        .workload
        .iter_mut()
        .filter(|(_, p)| p.proto == Proto::Icmp)
    {
        // Any fabric host but the source itself.
        let mut j = rng.gen_range(0..hosts.len() - 1);
        if hosts[j] >= *src {
            j += 1;
        }
        *pkt = Packet::icmp(pkt.seq, *src, hosts[j]);
    }
    s.id = "Q1@fabric-10k".into();
    s
}

fn scenario_golden(golden: &Value, workload: Workload, id: &str) -> ScenarioGolden {
    let missing = |what: &str| -> ! {
        panic!(
            "golden/{}.json: scenario {id}: missing {what}",
            workload.name()
        )
    };
    let entry = golden
        .get("scenarios")
        .and_then(|s| s.get(id))
        .unwrap_or_else(|| missing("entry"));
    ScenarioGolden {
        generated: entry
            .get("generated")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| missing("generated")) as usize,
        accepted: entry
            .get("accepted")
            .and_then(Value::as_array)
            .unwrap_or_else(|| missing("accepted"))
            .iter()
            .map(|d| {
                d.as_str()
                    .unwrap_or_else(|| missing("accepted description"))
                    .to_string()
            })
            .collect(),
        reference_accepted: entry
            .get("reference_accepted")
            .and_then(Value::as_bool)
            .unwrap_or_else(|| missing("reference_accepted")),
    }
}

// ---------------------------------------------------------------------------
// packetin-stream
// ---------------------------------------------------------------------------

/// Packet-ins per pass.
pub const PACKETS_PER_PASS: usize = 250_000;
/// Packet-ins timed as one sample; a pass is 250 samples.
pub const CHUNK: usize = 1_000;

/// What the controller answered over one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplyDigest {
    /// Control messages sent.
    pub messages: u64,
    /// Of which `FlowMod`.
    pub flow_mods: u64,
    /// Of which `PacketOut`.
    pub packet_outs: u64,
}

/// Inputs of `packetin-stream`: the Q1 controller program and a seeded
/// campus trace turned into packet-ins at each client's ingress switch.
pub struct StreamInputs {
    /// The controller the stream is fed to.
    pub scenario: Scenario,
    /// The stream.
    pub msgs: Vec<PacketInMsg>,
    /// Milliseconds `Workload::generate` took.
    pub generate_ms: f64,
    /// The golden digest, when the seed is the goldens' own.
    pub golden: Option<ReplyDigest>,
}

/// How a pass treats history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Provenance recording on, tuples in memory only.
    Mem,
    /// Provenance recording on, store mutations journalled (fsync off).
    Wal,
    /// Provenance recording off — the §5.4 baseline.
    NoRecord,
}

impl StreamInputs {
    /// Build the stream from `seed`.
    pub fn build(seed: u64) -> StreamInputs {
        let scenario = Scenario::q1_copy_paste();
        let topo = &scenario.topology;
        use mpr_core::scenarios::q1_hosts::{C2, C31, C41, H30, H40};
        use mpr_sdn::topology::fig1_hosts::{DNS, H1, H2, INTERNET};
        let mut spec = mpr_trace::Workload::trace_profile_a(
            vec![INTERNET, C2, C31, C41],
            vec![H1, H2, H30, H40],
            vec![DNS],
        );
        spec.seed = seed;
        spec.packets = PACKETS_PER_PASS;
        let t = Instant::now();
        let trace = spec.generate();
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let msgs = trace
            .into_iter()
            .map(|(client, packet)| {
                let (switch, in_port) = topo
                    .host_attachment(client)
                    .expect("trace clients are attached hosts");
                PacketInMsg {
                    switch,
                    in_port,
                    packet,
                }
            })
            .collect();
        let g = Workload::PacketinStream.golden();
        let field = |k: &str| {
            g.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("golden/packetin-stream.json: missing {k}"))
        };
        let golden =
            (seed == GOLDEN_SEED && field("packets") as usize == PACKETS_PER_PASS).then(|| {
                ReplyDigest {
                    messages: field("messages"),
                    flow_mods: field("flow_mods"),
                    packet_outs: field("packet_outs"),
                }
            });
        StreamInputs {
            scenario,
            msgs,
            generate_ms,
            golden,
        }
    }

    /// A fresh controller for one pass. WAL passes journal under `wal_dir`
    /// with fsync off (the engine's default flush policy, stated in the
    /// README).
    pub fn controller(&self, kind: PassKind, wal_dir: &Path) -> NdlogController {
        let opts = Options {
            record_events: kind != PassKind::NoRecord,
            durability: match kind {
                PassKind::Wal => Durability::Wal(WalOptions::new(wal_dir)),
                _ => Durability::Mem,
            },
            ..Options::default()
        };
        let mut ctrl = NdlogController::with_options(
            self.scenario.program.clone(),
            self.scenario.codec.clone(),
            opts,
        )
        .expect("the Q1 program compiles");
        ctrl.seed(self.scenario.seeds.clone())
            .expect("the Q1 seeds insert");
        ctrl
    }
}

/// Feed `msgs` to `ctrl`, timing chunks of [`CHUNK`] packet-ins. Returns
/// milliseconds per packet-in for every chunk and the reply digest.
pub fn pass(ctrl: &mut NdlogController, msgs: &[PacketInMsg]) -> (Vec<f64>, ReplyDigest) {
    let mut digest = ReplyDigest::default();
    let mut replies: Vec<CtrlMsg> = Vec::new();
    let mut per_packet_ms = Vec::with_capacity(msgs.len() / CHUNK + 1);
    for chunk in msgs.chunks(CHUNK) {
        let t = Instant::now();
        for msg in chunk {
            replies.clear();
            ctrl.on_packet_in(msg, &mut replies);
            digest.absorb(&replies);
        }
        per_packet_ms.push(t.elapsed().as_secs_f64() * 1e3 / chunk.len() as f64);
    }
    (per_packet_ms, digest)
}

impl ReplyDigest {
    /// Count one packet-in's replies.
    pub fn absorb(&mut self, replies: &[CtrlMsg]) {
        for r in replies {
            self.messages += 1;
            match r {
                CtrlMsg::FlowMod { .. } => self.flow_mods += 1,
                CtrlMsg::PacketOut { .. } => self.packet_outs += 1,
            }
        }
    }
}
