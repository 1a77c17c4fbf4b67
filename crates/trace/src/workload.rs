//! Deterministic workload generation.
//!
//! The paper replays "two traffic traces obtained in a similar campus
//! network setting" (Benson et al., IMC'10) plus "a mix of ICMP ping
//! traffic and HTTP web traffic on the remaining hosts" (§5.2). Those
//! traces are not redistributable, so this module synthesizes workloads
//! with the same *distributional* features the experiments depend on:
//! a protocol mix, skewed (Zipf-ish) client popularity, and per-profile
//! packet-size/rate differences. Everything is driven by an explicit seed.

use mpr_sdn::packet::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One packet to inject: `(source host, packet)`.
pub type Injection = (i64, Packet);

/// Protocol mix (fractions must sum to ≤ 1; the remainder is ICMP).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Fraction of HTTP requests.
    pub http: f64,
    /// Fraction of DNS queries.
    pub dns: f64,
}

/// A workload specification.
#[derive(Debug, Clone)]
pub struct Workload {
    /// RNG seed (every run with the same spec is identical).
    pub seed: u64,
    /// Number of packets.
    pub packets: usize,
    /// Protocol mix.
    pub mix: Mix,
    /// Client hosts (sources). Popularity is Zipf-ish: client `i` is
    /// proportionally `1/(i+1)` as likely as client 0.
    pub clients: Vec<i64>,
    /// HTTP server hosts (destinations for HTTP).
    pub http_servers: Vec<i64>,
    /// DNS server hosts.
    pub dns_servers: Vec<i64>,
    /// Mean payload bytes (profile knob for the storage experiment).
    pub mean_payload: u32,
    /// Arrival rate of the original trace in packets/second — the knob
    /// that differentiates the two §5.4 logging rates.
    pub packets_per_sec: u64,
}

impl Workload {
    /// The paper's first campus-trace profile: HTTP-heavy, larger packets.
    /// (§5.4 reports ≈20.2 MB/s of log per switch for this one.)
    pub fn trace_profile_a(clients: Vec<i64>, http: Vec<i64>, dns: Vec<i64>) -> Workload {
        Workload {
            seed: 0xA,
            packets: 10_000,
            mix: Mix { http: 0.75, dns: 0.15 },
            clients,
            http_servers: http,
            dns_servers: dns,
            mean_payload: 900,
            packets_per_sec: 168_000,
        }
    }

    /// The second profile: DNS-heavy, smaller packets (≈11.4 MB/s of log).
    pub fn trace_profile_b(clients: Vec<i64>, http: Vec<i64>, dns: Vec<i64>) -> Workload {
        Workload {
            seed: 0xB,
            packets: 10_000,
            mix: Mix { http: 0.35, dns: 0.45 },
            clients,
            http_servers: http,
            dns_servers: dns,
            mean_payload: 320,
            packets_per_sec: 95_000,
        }
    }

    /// Generate the packet sequence.
    pub fn generate(&self) -> Vec<Injection> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.packets);
        if self.clients.is_empty() {
            return out;
        }
        // Zipf-ish cumulative weights over clients.
        let weights: Vec<f64> =
            (0..self.clients.len()).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let total: f64 = weights.iter().sum();
        for seq in 0..self.packets {
            let mut pick = rng.gen::<f64>() * total;
            let mut ci = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    ci = i;
                    break;
                }
                pick -= w;
            }
            let client = self.clients[ci];
            let r = rng.gen::<f64>();
            let mut pkt = if r < self.mix.http && !self.http_servers.is_empty() {
                let srv = self.http_servers[rng.gen_range(0..self.http_servers.len())];
                Packet::http(seq as u64, client, srv)
            } else if r < self.mix.http + self.mix.dns && !self.dns_servers.is_empty() {
                let srv = self.dns_servers[rng.gen_range(0..self.dns_servers.len())];
                Packet::dns(seq as u64, client, srv)
            } else {
                // ICMP ping to a random peer (background traffic).
                let all: &Vec<i64> = &self.clients;
                let dst = all[rng.gen_range(0..all.len())];
                Packet::icmp(seq as u64, client, dst)
            };
            // Payload jitter around the profile mean.
            let jitter = rng.gen_range(0..=self.mean_payload / 2);
            pkt.payload = self.mean_payload / 2 + jitter;
            out.push((client, pkt));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_sdn::packet::Proto;

    fn spec() -> Workload {
        Workload {
            seed: 7,
            packets: 2000,
            mix: Mix { http: 0.6, dns: 0.2 },
            clients: vec![1, 2, 3, 4, 5],
            http_servers: vec![10, 20],
            dns_servers: vec![17],
            mean_payload: 400,
            packets_per_sec: 10_000,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec().generate();
        let b = spec().generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2000);
    }

    #[test]
    fn mix_fractions_are_respected() {
        let pkts = spec().generate();
        let http = pkts.iter().filter(|(_, p)| p.proto == Proto::Tcp).count() as f64;
        let dns = pkts.iter().filter(|(_, p)| p.proto == Proto::Udp).count() as f64;
        let n = pkts.len() as f64;
        assert!((http / n - 0.6).abs() < 0.05, "http fraction {}", http / n);
        assert!((dns / n - 0.2).abs() < 0.05, "dns fraction {}", dns / n);
    }

    #[test]
    fn client_popularity_is_skewed() {
        let pkts = spec().generate();
        let count = |c: i64| pkts.iter().filter(|(src, _)| *src == c).count();
        // Zipf-ish: client 1 strictly more popular than client 5.
        assert!(count(1) > count(5) * 2);
    }

    #[test]
    fn profiles_differ_in_size_and_mix() {
        let a = Workload::trace_profile_a(vec![1, 2], vec![10], vec![17]);
        let b = Workload::trace_profile_b(vec![1, 2], vec![10], vec![17]);
        // Profile A is HTTP-heavy with larger packets → more bytes.
        let bytes = |w: &Workload| w.generate().iter().map(|(_, p)| p.wire_size()).sum::<u64>();
        assert!(bytes(&a) > bytes(&b));
    }

    #[test]
    fn empty_clients_yield_empty_workload() {
        let mut w = spec();
        w.clients.clear();
        assert!(w.generate().is_empty());
    }

    #[test]
    fn http_destinations_are_http_servers() {
        let pkts = spec().generate();
        for (_, p) in pkts {
            if p.proto == Proto::Tcp {
                assert!([10, 20].contains(&p.dst_ip));
                assert_eq!(p.dst_port, 80);
            } else if p.proto == Proto::Udp {
                assert_eq!(p.dst_ip, 17);
                assert_eq!(p.dst_port, 53);
            }
        }
    }
}
