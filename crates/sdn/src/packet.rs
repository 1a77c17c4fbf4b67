//! Packets and header fields.
//!
//! The scenarios of §5.3 match on small-integer header fields (switch ids,
//! source/destination IPs as host indices, TCP/UDP ports, MAC addresses as
//! integers), so the packet model keeps every field as an `i64` that maps
//! 1:1 onto NDlog [`mpr_ndlog::Value::Int`] columns. [`Packet::wire_size`]
//! is the size the §5.4 storage-overhead accounting charges per packet.

use std::fmt;

/// Transport protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proto {
    /// TCP (HTTP traffic in the scenarios).
    Tcp,
    /// UDP (DNS traffic).
    Udp,
    /// ICMP echo (ping background traffic).
    Icmp,
}

impl Proto {
    /// Integer code used in NDlog tuples (6 / 17 / 1, the IANA numbers).
    pub fn code(&self) -> i64 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
            Proto::Icmp => 1,
        }
    }

    /// Inverse of [`Proto::code`].
    pub fn from_code(c: i64) -> Option<Proto> {
        match c {
            6 => Some(Proto::Tcp),
            17 => Some(Proto::Udp),
            1 => Some(Proto::Icmp),
            _ => None,
        }
    }
}

/// Well-known ports used throughout the paper's scenarios.
pub mod ports {
    /// HTTP.
    pub const HTTP: i64 = 80;
    /// DNS.
    pub const DNS: i64 = 53;
}

/// A packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Unique sequence number (assigned by the generator; keeps otherwise
    /// identical packets distinct).
    pub seq: u64,
    /// Source IP (host index).
    pub src_ip: i64,
    /// Destination IP (host index).
    pub dst_ip: i64,
    /// Source port.
    pub src_port: i64,
    /// Destination port.
    pub dst_port: i64,
    /// Protocol.
    pub proto: Proto,
    /// Source MAC (integer).
    pub src_mac: i64,
    /// Destination MAC (integer; -1 = broadcast).
    pub dst_mac: i64,
    /// Payload size in bytes (for throughput accounting).
    pub payload: u32,
}

impl Packet {
    /// An HTTP request packet.
    pub fn http(seq: u64, src_ip: i64, dst_ip: i64) -> Packet {
        Packet {
            seq,
            src_ip,
            dst_ip,
            src_port: 30_000 + (seq % 20_000) as i64,
            dst_port: ports::HTTP,
            proto: Proto::Tcp,
            src_mac: src_ip,
            dst_mac: dst_ip,
            payload: 512,
        }
    }

    /// A DNS query packet.
    pub fn dns(seq: u64, src_ip: i64, dst_ip: i64) -> Packet {
        Packet {
            seq,
            src_ip,
            dst_ip,
            src_port: 30_000 + (seq % 20_000) as i64,
            dst_port: ports::DNS,
            proto: Proto::Udp,
            src_mac: src_ip,
            dst_mac: dst_ip,
            payload: 64,
        }
    }

    /// An ICMP echo packet.
    pub fn icmp(seq: u64, src_ip: i64, dst_ip: i64) -> Packet {
        Packet {
            seq,
            src_ip,
            dst_ip,
            src_port: 0,
            dst_port: 0,
            proto: Proto::Icmp,
            src_mac: src_ip,
            dst_mac: dst_ip,
            payload: 64,
        }
    }

    /// Header field accessor by symbolic name (the glue between packets and
    /// NDlog tuple columns).
    pub fn field(&self, f: Field) -> i64 {
        match f {
            Field::SrcIp => self.src_ip,
            Field::DstIp => self.dst_ip,
            Field::SrcPort => self.src_port,
            Field::DstPort => self.dst_port,
            Field::Proto => self.proto.code(),
            Field::SrcMac => self.src_mac,
            Field::DstMac => self.dst_mac,
        }
    }

    /// Set a header field by symbolic name (used by `Modify` actions).
    pub fn set_field(&mut self, f: Field, v: i64) {
        match f {
            Field::SrcIp => self.src_ip = v,
            Field::DstIp => self.dst_ip = v,
            Field::SrcPort => self.src_port = v,
            Field::DstPort => self.dst_port = v,
            Field::Proto => {
                if let Some(p) = Proto::from_code(v) {
                    self.proto = p;
                }
            }
            Field::SrcMac => self.src_mac = v,
            Field::DstMac => self.dst_mac = v,
        }
    }

    /// Size on the wire in bytes: a 68-byte header (the sequence number
    /// and the seven header fields as 8 bytes each, the payload length as
    /// 4) plus the payload.
    pub fn wire_size(&self) -> u64 {
        68 + u64::from(self.payload)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {:?} {}:{} -> {}:{}",
            self.seq, self.proto, self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

/// Symbolic header field names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Source IP.
    SrcIp,
    /// Destination IP.
    DstIp,
    /// Source transport port.
    SrcPort,
    /// Destination transport port.
    DstPort,
    /// Protocol code.
    Proto,
    /// Source MAC.
    SrcMac,
    /// Destination MAC.
    DstMac,
}

impl Field {
    /// All fields, in a stable order.
    pub const ALL: [Field; 7] = [
        Field::SrcIp,
        Field::DstIp,
        Field::SrcPort,
        Field::DstPort,
        Field::Proto,
        Field::SrcMac,
        Field::DstMac,
    ];

    /// Conventional short name (matches the variable names the scenario
    /// programs use: `Sip`, `Dip`, `Spt`, `Dpt`, `Pro`, `Smc`, `Dmc`).
    pub fn short(&self) -> &'static str {
        match self {
            Field::SrcIp => "Sip",
            Field::DstIp => "Dip",
            Field::SrcPort => "Spt",
            Field::DstPort => "Dpt",
            Field::Proto => "Pro",
            Field::SrcMac => "Smc",
            Field::DstMac => "Dmc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_protocol_and_ports() {
        let p = Packet::http(1, 100, 20);
        assert_eq!(p.proto, Proto::Tcp);
        assert_eq!(p.dst_port, ports::HTTP);
        let p = Packet::dns(2, 100, 17);
        assert_eq!(p.proto, Proto::Udp);
        assert_eq!(p.dst_port, ports::DNS);
        let p = Packet::icmp(3, 1, 2);
        assert_eq!(p.proto, Proto::Icmp);
    }

    #[test]
    fn field_access_and_modify() {
        let mut p = Packet::http(1, 5, 6);
        assert_eq!(p.field(Field::SrcIp), 5);
        assert_eq!(p.field(Field::DstPort), 80);
        assert_eq!(p.field(Field::Proto), 6);
        p.set_field(Field::DstIp, 99);
        assert_eq!(p.dst_ip, 99);
        p.set_field(Field::Proto, 17);
        assert_eq!(p.proto, Proto::Udp);
        p.set_field(Field::Proto, 999); // unknown code ignored
        assert_eq!(p.proto, Proto::Udp);
        for f in Field::ALL {
            let _ = p.field(f);
        }
    }

    #[test]
    fn proto_codes_roundtrip() {
        for p in [Proto::Tcp, Proto::Udp, Proto::Icmp] {
            assert_eq!(Proto::from_code(p.code()), Some(p));
        }
        assert_eq!(Proto::from_code(99), None);
    }

    #[test]
    fn wire_size_includes_payload() {
        let p = Packet::http(1, 1, 2);
        assert_eq!(p.wire_size(), 68 + 512);
    }
}
