//! Endpoints and node records.

use crate::id::NodeId;
use crate::url;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// A node's network endpoint: IP address plus UDP (discovery) and TCP
/// (RLPx) ports. Discovery packets carry endpoints in this exact
/// three-field RLP layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Endpoint {
    /// IPv4 address (the 2018-era network is effectively v4-only).
    pub ip: Ipv4Addr,
    /// UDP port for discv4.
    pub udp_port: u16,
    /// TCP port for RLPx (30303 by default).
    pub tcp_port: u16,
}

obs::snap_struct!(Endpoint {
    ip,
    udp_port,
    tcp_port
});

impl Endpoint {
    /// Construct with the same port for UDP and TCP (the common case).
    pub fn new(ip: Ipv4Addr, port: u16) -> Endpoint {
        Endpoint {
            ip,
            udp_port: port,
            tcp_port: port,
        }
    }

    /// The default Ethereum port.
    pub const DEFAULT_PORT: u16 = 30303;
}

impl rlp::Encodable for Endpoint {
    fn rlp_append(&self, s: &mut rlp::RlpStream) {
        s.begin_list(3);
        s.append_bytes(&self.ip.octets());
        s.append(&self.udp_port);
        s.append(&self.tcp_port);
    }
}

impl rlp::Decodable for Endpoint {
    fn rlp_decode(r: &rlp::Rlp<'_>) -> Result<Self, rlp::RlpError> {
        // Lenient-decode policy (EIP-8 forward compatibility): require the
        // three known fields, tolerate-and-count any extra list elements a
        // newer client may append. See DESIGN.md § Wire conformance.
        let count = r.item_count()?;
        if count < 3 {
            return Err(rlp::RlpError::Custom("endpoint must have >= 3 fields"));
        }
        if count > 3 {
            obs::counter_add("wire.extra.endpoint", 1);
        }
        let ip_bytes = r.at(0)?.as_array::<4>()?;
        Ok(Endpoint {
            ip: Ipv4Addr::from(ip_bytes),
            udp_port: r.at(1)?.as_val()?,
            tcp_port: r.at(2)?.as_val()?,
        })
    }
}

/// A known node: identity plus endpoint. This is what discovery returns,
/// what the dialer consumes, and what the crawler's StaticNodes list stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeRecord {
    /// The node's 512-bit identifier.
    pub id: NodeId,
    /// Last-known network endpoint.
    pub endpoint: Endpoint,
}

obs::snap_struct!(NodeRecord { id, endpoint });

impl NodeRecord {
    /// Construct a record.
    pub fn new(id: NodeId, endpoint: Endpoint) -> NodeRecord {
        NodeRecord { id, endpoint }
    }

    /// Render as an `enode://` URL.
    pub fn to_enode_url(&self) -> String {
        url::format_enode(self)
    }
}

impl fmt::Display for NodeRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_enode_url())
    }
}

// Discovery NEIGHBORS packets carry (endpoint fields inline + id) as a
// 4-field list: [ip, udp, tcp, id].
impl rlp::Encodable for NodeRecord {
    fn rlp_append(&self, s: &mut rlp::RlpStream) {
        s.begin_list(4);
        s.append_bytes(&self.endpoint.ip.octets());
        s.append(&self.endpoint.udp_port);
        s.append(&self.endpoint.tcp_port);
        s.append(&self.id);
    }
}

impl rlp::Decodable for NodeRecord {
    fn rlp_decode(r: &rlp::Rlp<'_>) -> Result<Self, rlp::RlpError> {
        // Lenient-decode policy (EIP-8): >= 4 fields, extras tolerated and
        // counted. See DESIGN.md § Wire conformance.
        let count = r.item_count()?;
        if count < 4 {
            return Err(rlp::RlpError::Custom("node record must have >= 4 fields"));
        }
        if count > 4 {
            obs::counter_add("wire.extra.node_record", 1);
        }
        let ip_bytes = r.at(0)?.as_array::<4>()?;
        Ok(NodeRecord {
            endpoint: Endpoint {
                ip: Ipv4Addr::from(ip_bytes),
                udp_port: r.at(1)?.as_val()?,
                tcp_port: r.at(2)?.as_val()?,
            },
            id: r.at(3)?.as_val()?,
        })
    }
}

impl rlp::EncodableListElem for NodeRecord {}
impl rlp::DecodableListElem for NodeRecord {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeRecord {
        NodeRecord::new(
            NodeId([0x78u8; 64]),
            Endpoint {
                ip: Ipv4Addr::new(191, 235, 84, 50),
                udp_port: 30303,
                tcp_port: 30303,
            },
        )
    }

    #[test]
    fn endpoint_rlp_roundtrip() {
        let ep = Endpoint {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            udp_port: 30301,
            tcp_port: 30303,
        };
        let bytes = rlp::encode(&ep);
        assert_eq!(rlp::decode::<Endpoint>(&bytes).unwrap(), ep);
    }

    #[test]
    fn record_rlp_roundtrip() {
        let rec = sample();
        let bytes = rlp::encode(&rec);
        assert_eq!(rlp::decode::<NodeRecord>(&bytes).unwrap(), rec);
    }

    #[test]
    fn record_list_roundtrip() {
        let recs = vec![sample(), sample()];
        let bytes = rlp::encode_list(&recs);
        assert_eq!(rlp::decode_list::<NodeRecord>(&bytes).unwrap(), recs);
    }

    #[test]
    fn wrong_field_count_rejected() {
        let mut s = rlp::RlpStream::new_list(2);
        s.append(&1u8).append(&2u8);
        assert!(rlp::decode::<NodeRecord>(&s.out()).is_err());
    }

    #[test]
    fn extra_trailing_fields_tolerated_and_counted() {
        // EIP-8-style: a future client appends fields we don't know about.
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 30303);
        let mut s = rlp::RlpStream::new_list(4);
        s.append_bytes(&ep.ip.octets());
        s.append(&ep.udp_port);
        s.append(&ep.tcp_port);
        s.append_bytes(b"future");
        let bytes = s.out();

        let rec = obs::Recorder::new();
        rec.install();
        assert_eq!(rlp::decode::<Endpoint>(&bytes).unwrap(), ep);
        obs::uninstall();
        assert_eq!(rec.counter("wire.extra.endpoint"), 1);

        let node = sample();
        let mut s = rlp::RlpStream::new_list(5);
        s.append_bytes(&node.endpoint.ip.octets());
        s.append(&node.endpoint.udp_port);
        s.append(&node.endpoint.tcp_port);
        s.append(&node.id);
        s.append(&7u8);
        let bytes = s.out();

        let rec = obs::Recorder::new();
        rec.install();
        assert_eq!(rlp::decode::<NodeRecord>(&bytes).unwrap(), node);
        obs::uninstall();
        assert_eq!(rec.counter("wire.extra.node_record"), 1);
    }

    #[test]
    fn display_is_enode_url() {
        let rec = sample();
        let shown = format!("{rec}");
        assert!(shown.starts_with("enode://7878"));
        assert!(shown.ends_with("@191.235.84.50:30303"));
        let mut split = sample();
        split.endpoint.udp_port = 30301;
        assert!(split.to_string().ends_with(":30303?discport=30301"));
    }
}
