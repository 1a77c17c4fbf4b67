//! §5.4 disk storage: what one packet-in costs the log, measured, next to
//! the paper's fixed 120-byte entry; and the per-switch log rate each
//! campus trace profile then implies. (Paper: 20.2 and 11.4 MB/s per
//! switch — a fraction of commodity SSD write rates.)
//!
//! The Q1 controller is fed each profile's trace as packet-ins at each
//! client's ingress switch, provenance recording on, and the execution
//! log reports its own bytes: `storage_bytes` (rows at their encoded
//! size — what writing the history out takes) and `heap_bytes` (what
//! holding it in memory takes, allocator slack included).

use mpr_bench::{header, host_fingerprint, write_artifact};
use mpr_core::scenarios::{q1_hosts, Scenario};
use mpr_sdn::controller::{Controller, NdlogController, PacketInMsg};
use mpr_sdn::topology::fig1_hosts::{DNS, H1, H2, INTERNET};
use mpr_trace::LOG_ENTRY_BYTES;
use mpr_trace::workload::Workload;

fn main() {
    header("§5.4: log bytes per packet-in, and log rates for the two trace profiles");
    let scenario = Scenario::q1_copy_paste();
    let clients = vec![INTERNET, q1_hosts::C2, q1_hosts::C31, q1_hosts::C41];
    let http = vec![H1, H2, q1_hosts::H30, q1_hosts::H40];
    let profiles = [
        ("profile A (HTTP-heavy)", Workload::trace_profile_a(clients.clone(), http.clone(), vec![DNS]), 20.2),
        ("profile B (DNS-heavy)", Workload::trace_profile_b(clients, http, vec![DNS]), 11.4),
    ];
    let mut rows = Vec::new();
    println!(
        "{:24} {:>9} {:>8} {:>10} {:>10} {:>9} {:>10} {:>8} {:>10}",
        "profile", "packets", "events", "stored B", "heap B", "B/pkt", "paper B", "MB/s", "paper MB/s"
    );
    for (name, w, paper_mb_s) in profiles {
        let mut ctrl = NdlogController::new(scenario.program.clone(), scenario.codec.clone())
            .expect("the Q1 program compiles");
        ctrl.seed(scenario.seeds.clone()).expect("the Q1 seeds insert");
        let seeded = ctrl.exec_log().storage_bytes();
        let mut replies = Vec::new();
        let packets = w.generate();
        for (client, packet) in &packets {
            let (switch, in_port) =
                scenario.topology.host_attachment(*client).expect("trace clients are attached");
            replies.clear();
            ctrl.on_packet_in(&PacketInMsg { switch, in_port, packet: packet.clone() }, &mut replies);
        }
        let log = ctrl.exec_log();
        let per_packet = (log.storage_bytes() - seeded) as f64 / packets.len() as f64;
        // Each profile's original trace arrives at its own packet rate —
        // that rate, times the bytes a packet-in adds to the log, is the
        // per-switch logging bandwidth.
        let rate = per_packet * w.packets_per_sec as f64 / 1e6;
        println!(
            "{:24} {:>9} {:>8} {:>10} {:>10} {:>9.1} {:>10} {:>8.2} {:>10.2}",
            name,
            packets.len(),
            log.len(),
            log.storage_bytes(),
            log.heap_bytes(),
            per_packet,
            LOG_ENTRY_BYTES,
            rate,
            paper_mb_s
        );
        rows.push(serde_json::json!({
            "profile": name,
            "packet_ins": packets.len(),
            "events": log.len(),
            "storage_bytes": log.storage_bytes(),
            "heap_bytes": log.heap_bytes(),
            "bytes_per_packet_in": per_packet,
            "heap_bytes_per_packet_in": log.heap_bytes() as f64 / packets.len() as f64,
            "paper_entry_bytes": LOG_ENTRY_BYTES,
            "trace_pps": w.packets_per_sec,
            "mb_per_s": rate,
            "paper_mb_per_s": paper_mb_s,
        }));
    }
    println!("\npaper shape: a fixed 120 B entry per packet; ours is an instance row plus");
    println!("about two 32 B rows per packet-in (the inserted event, and a derivation that");
    println!("carries its shipment) that read back as six events — under the paper's entry,");
    println!("and well under SSD sequential-write bandwidth.");
    write_artifact("storage", &serde_json::json!({ "host": host_fingerprint(), "rows": rows }));
}
