//! discv4 wire packets: encoding, signing, verification, decoding.

use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::keccak256;
use ethcrypto::secp256k1::{recover, RecoverableSignature, SecretKey};
use rlp::{Rlp, RlpStream};

/// Maximum nodes per NEIGHBORS packet. The UDP datagram must stay under
/// 1280 bytes; 12 fits comfortably (Geth uses `maxNeighbors = 12`).
pub const MAX_NEIGHBORS_PER_PACKET: usize = 12;

/// discv4 packet bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Liveness probe + endpoint announcement.
    Ping {
        /// Protocol version (4).
        version: u32,
        /// Sender's own endpoint.
        from: Endpoint,
        /// Recipient's endpoint as seen by the sender.
        to: Endpoint,
        /// Unix-seconds deadline after which the packet is ignored.
        expiration: u64,
    },
    /// Reply to PING; completes the endpoint proof.
    Pong {
        /// Echo of the recipient endpoint.
        to: Endpoint,
        /// Hash of the PING being answered (anti-spoof linkage).
        ping_hash: [u8; 32],
        /// Expiry deadline.
        expiration: u64,
    },
    /// Ask for the k closest nodes to `target`.
    FindNode {
        /// Target node ID (a 64-byte public key).
        target: NodeId,
        /// Expiry deadline.
        expiration: u64,
    },
    /// Response to FINDNODE.
    Neighbors {
        /// Up to [`MAX_NEIGHBORS_PER_PACKET`] node records.
        nodes: Vec<NodeRecord>,
        /// Expiry deadline.
        expiration: u64,
    },
}

impl Packet {
    /// Wire discriminator byte.
    pub fn packet_type(&self) -> u8 {
        match self {
            Packet::Ping { .. } => 0x01,
            Packet::Pong { .. } => 0x02,
            Packet::FindNode { .. } => 0x03,
            Packet::Neighbors { .. } => 0x04,
        }
    }

    /// `head` followed by the RLP body, in `head`'s allocation.
    fn encode_body_after(&self, head: Vec<u8>) -> Vec<u8> {
        match self {
            Packet::Ping {
                version,
                from,
                to,
                expiration,
            } => {
                let mut s = RlpStream::new_list_after(head, 4);
                s.append(version).append(from).append(to).append(expiration);
                s.out()
            }
            Packet::Pong {
                to,
                ping_hash,
                expiration,
            } => {
                let mut s = RlpStream::new_list_after(head, 3);
                s.append(to).append(ping_hash).append(expiration);
                s.out()
            }
            Packet::FindNode { target, expiration } => {
                let mut s = RlpStream::new_list_after(head, 2);
                s.append(target).append(expiration);
                s.out()
            }
            Packet::Neighbors { nodes, expiration } => {
                let mut s = RlpStream::new_list_after(head, 2);
                s.begin_list(nodes.len());
                for n in nodes {
                    s.append(n);
                }
                s.append(expiration);
                s.out()
            }
        }
    }

    fn decode_body(ptype: u8, body: &[u8]) -> Result<Packet, PacketError> {
        let r = Rlp::new(body);
        let packet = match ptype {
            0x01 => {
                // Forward-compatibly tolerate-and-count extra trailing
                // fields (EIP-8). See DESIGN.md § Wire conformance.
                let count = r.item_count().map_err(PacketError::Rlp)?;
                if count < 4 {
                    return Err(PacketError::Malformed("ping needs 4 fields"));
                }
                if count > 4 {
                    obs::counter_add("wire.extra.ping", 1);
                }
                Packet::Ping {
                    version: r.at(0).and_then(|i| i.as_val()).map_err(PacketError::Rlp)?,
                    from: r.at(1).and_then(|i| i.as_val()).map_err(PacketError::Rlp)?,
                    to: r.at(2).and_then(|i| i.as_val()).map_err(PacketError::Rlp)?,
                    expiration: r.at(3).and_then(|i| i.as_val()).map_err(PacketError::Rlp)?,
                }
            }
            0x02 => {
                let count = r.item_count().map_err(PacketError::Rlp)?;
                if count < 3 {
                    return Err(PacketError::Malformed("pong needs 3 fields"));
                }
                if count > 3 {
                    obs::counter_add("wire.extra.pong", 1);
                }
                Packet::Pong {
                    to: r.at(0).and_then(|i| i.as_val()).map_err(PacketError::Rlp)?,
                    ping_hash: r
                        .at(1)
                        .and_then(|i| i.as_array())
                        .map_err(PacketError::Rlp)?,
                    expiration: r.at(2).and_then(|i| i.as_val()).map_err(PacketError::Rlp)?,
                }
            }
            0x03 => {
                let count = r.item_count().map_err(PacketError::Rlp)?;
                if count < 2 {
                    return Err(PacketError::Malformed("findnode needs 2 fields"));
                }
                if count > 2 {
                    obs::counter_add("wire.extra.findnode", 1);
                }
                Packet::FindNode {
                    target: r.at(0).and_then(|i| i.as_val()).map_err(PacketError::Rlp)?,
                    expiration: r.at(1).and_then(|i| i.as_val()).map_err(PacketError::Rlp)?,
                }
            }
            0x04 => {
                let count = r.item_count().map_err(PacketError::Rlp)?;
                if count < 2 {
                    return Err(PacketError::Malformed("neighbors needs 2 fields"));
                }
                if count > 2 {
                    obs::counter_add("wire.extra.neighbors", 1);
                }
                Packet::Neighbors {
                    nodes: r
                        .at(0)
                        .and_then(|i| i.as_list())
                        .map_err(PacketError::Rlp)?,
                    expiration: r.at(1).and_then(|i| i.as_val()).map_err(PacketError::Rlp)?,
                }
            }
            other => return Err(PacketError::UnknownType(other)),
        };
        Ok(packet)
    }
}

/// Why a datagram failed to parse or verify.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketError {
    /// Shorter than the fixed header.
    TooShort,
    /// `keccak256(sig ‖ type ‖ data)` mismatch.
    BadHash,
    /// Signature malformed or recovery failed.
    BadSignature,
    /// Unknown packet-type byte.
    UnknownType(u8),
    /// RLP body failed to decode.
    Rlp(rlp::RlpError),
    /// Structurally invalid body.
    Malformed(&'static str),
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::TooShort => write!(f, "datagram shorter than discv4 header"),
            PacketError::BadHash => write!(f, "integrity hash mismatch"),
            PacketError::BadSignature => write!(f, "signature invalid"),
            PacketError::UnknownType(t) => write!(f, "unknown packet type {t:#x}"),
            PacketError::Rlp(e) => write!(f, "body rlp error: {e}"),
            PacketError::Malformed(m) => write!(f, "malformed body: {m}"),
        }
    }
}

impl std::error::Error for PacketError {}

const HEAD_LEN: usize = 32 + 65; // hash + signature

/// Sign and serialize a packet. Returns `(datagram, packet_hash)`; the hash
/// is what a PONG must echo.
pub fn encode_packet(key: &SecretKey, packet: &Packet) -> (Vec<u8>, [u8; 32]) {
    // One buffer: room for hash ‖ signature, then type ‖ body behind it;
    // the two are filled in once what they cover is there. Every packet
    // but NEIGHBORS fits the first allocation.
    let mut head = Vec::with_capacity(HEAD_LEN + 1 + 128);
    head.resize(HEAD_LEN, 0);
    head.push(packet.packet_type());
    let mut out = packet.encode_body_after(head);
    let sig = key.sign_recoverable(&keccak256(&out[HEAD_LEN..]));
    out[32..HEAD_LEN].copy_from_slice(&sig.to_bytes());
    let hash = keccak256(&out[32..]);
    out[..32].copy_from_slice(&hash);
    (out, hash)
}

/// Verify and decode a datagram. Returns the sender's recovered node ID,
/// the packet, and its hash.
pub fn decode_packet(datagram: &[u8]) -> Result<(NodeId, Packet, [u8; 32]), PacketError> {
    if datagram.len() < HEAD_LEN + 1 {
        return Err(PacketError::TooShort);
    }
    #[allow(clippy::unwrap_used)]
    // length checked above; `..32` slice is exactly 32 bytes
    let claimed_hash: [u8; 32] = datagram[..32].try_into().unwrap();
    let actual_hash = keccak256(&datagram[32..]);
    if claimed_hash != actual_hash {
        return Err(PacketError::BadHash);
    }
    #[allow(clippy::unwrap_used)]
    // length checked above; `32..97` slice is exactly 65 bytes
    let sig_bytes: [u8; 65] = datagram[32..97].try_into().unwrap();
    let sig =
        RecoverableSignature::from_bytes(&sig_bytes).map_err(|_| PacketError::BadSignature)?;
    let type_and_data = &datagram[97..];
    let digest = keccak256(type_and_data);
    let sender = recover(&digest, &sig).map_err(|_| PacketError::BadSignature)?;
    let packet = Packet::decode_body(type_and_data[0], &type_and_data[1..])?;
    Ok((NodeId::from_public_key(&sender), packet, actual_hash))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(seed: u8) -> SecretKey {
        SecretKey::from_bytes(&[seed; 32]).unwrap()
    }

    fn ep(last: u8) -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, last), 30303)
    }

    fn roundtrip(p: Packet) {
        let k = key(0x31);
        let (datagram, hash) = encode_packet(&k, &p);
        let (sender, decoded, rhash) = decode_packet(&datagram).unwrap();
        assert_eq!(sender, NodeId::from_secret_key(&k));
        assert_eq!(decoded, p);
        assert_eq!(rhash, hash);
    }

    #[test]
    fn ping_roundtrip() {
        roundtrip(Packet::Ping {
            version: 4,
            from: ep(1),
            to: ep(2),
            expiration: 1_600_000_000,
        });
    }

    #[test]
    fn pong_roundtrip() {
        roundtrip(Packet::Pong {
            to: ep(1),
            ping_hash: [9u8; 32],
            expiration: 77,
        });
    }

    #[test]
    fn findnode_roundtrip() {
        roundtrip(Packet::FindNode {
            target: NodeId([0x44u8; 64]),
            expiration: 12345,
        });
    }

    #[test]
    fn neighbors_roundtrip() {
        let nodes: Vec<NodeRecord> = (0..MAX_NEIGHBORS_PER_PACKET as u8)
            .map(|i| NodeRecord::new(NodeId([i; 64]), ep(i)))
            .collect();
        roundtrip(Packet::Neighbors {
            nodes,
            expiration: 999,
        });
    }

    #[test]
    fn neighbors_fits_udp_mtu() {
        let k = key(1);
        let nodes: Vec<NodeRecord> = (0..MAX_NEIGHBORS_PER_PACKET as u8)
            .map(|i| NodeRecord::new(NodeId([i; 64]), ep(i)))
            .collect();
        let (datagram, _) = encode_packet(
            &k,
            &Packet::Neighbors {
                nodes,
                expiration: u64::MAX,
            },
        );
        assert!(datagram.len() <= 1280, "len {}", datagram.len());
    }

    #[test]
    fn corrupted_hash_rejected() {
        let k = key(2);
        let (mut d, _) = encode_packet(
            &k,
            &Packet::FindNode {
                target: NodeId::ZERO,
                expiration: 1,
            },
        );
        d[0] ^= 0xff;
        assert_eq!(decode_packet(&d), Err(PacketError::BadHash));
    }

    #[test]
    fn corrupted_body_rejected_via_hash() {
        let k = key(3);
        let (mut d, _) = encode_packet(
            &k,
            &Packet::FindNode {
                target: NodeId::ZERO,
                expiration: 1,
            },
        );
        let last = d.len() - 1;
        d[last] ^= 0x01;
        assert_eq!(decode_packet(&d), Err(PacketError::BadHash));
    }

    #[test]
    fn tampered_signature_changes_sender_or_fails() {
        let k = key(4);
        let p = Packet::FindNode {
            target: NodeId([1u8; 64]),
            expiration: 1,
        };
        let (mut d, _) = encode_packet(&k, &p);
        // flip a bit in the signature, then fix up the outer hash so only
        // signature verification can catch it
        d[40] ^= 0x01;
        let new_hash = keccak256(&d[32..]);
        d[..32].copy_from_slice(&new_hash);
        match decode_packet(&d) {
            Ok((sender, _, _)) => assert_ne!(sender, NodeId::from_secret_key(&k)),
            Err(e) => assert!(matches!(e, PacketError::BadSignature)),
        }
    }

    #[test]
    fn short_datagrams_rejected() {
        assert_eq!(decode_packet(&[]), Err(PacketError::TooShort));
        assert_eq!(decode_packet(&[0u8; 97]), Err(PacketError::TooShort));
    }

    #[test]
    fn unknown_type_rejected() {
        let k = key(5);
        // hand-build a packet with type 0x09
        let body = {
            let mut s = RlpStream::new_list(1);
            s.append(&1u8);
            s.out()
        };
        let mut type_and_data = vec![0x09];
        type_and_data.extend_from_slice(&body);
        let sig = k.sign_recoverable(&keccak256(&type_and_data)).to_bytes();
        let mut hashed = sig.to_vec();
        hashed.extend_from_slice(&type_and_data);
        let mut d = keccak256(&hashed).to_vec();
        d.extend_from_slice(&hashed);
        assert_eq!(decode_packet(&d), Err(PacketError::UnknownType(0x09)));
    }

    /// Hand-assemble a signed datagram around an arbitrary body.
    fn sign_raw_body(k: &SecretKey, ptype: u8, body: &[u8]) -> Vec<u8> {
        let mut type_and_data = vec![ptype];
        type_and_data.extend_from_slice(body);
        let sig = k.sign_recoverable(&keccak256(&type_and_data)).to_bytes();
        let mut hashed = sig.to_vec();
        hashed.extend_from_slice(&type_and_data);
        let mut d = keccak256(&hashed).to_vec();
        d.extend_from_slice(&hashed);
        d
    }

    #[test]
    fn eip8_trailing_fields_tolerated() {
        // A ping with 5 fields (one extra) must still decode.
        let k = key(6);
        let body = {
            let mut s = RlpStream::new_list(5);
            s.append(&4u32)
                .append(&ep(1))
                .append(&ep(2))
                .append(&1_700_000_000u64)
                .append(&"future-field");
            s.out()
        };
        let d = sign_raw_body(&k, 0x01, &body);
        let (_, p, _) = decode_packet(&d).unwrap();
        assert!(matches!(p, Packet::Ping { version: 4, .. }));
    }

    #[test]
    fn eip8_extras_tolerated_and_counted_for_every_packet_type() {
        // Regression for the EIP-8 forward-compat rule: each packet type
        // with one extra trailing list element decodes to the same struct
        // as its canonical form, and the toleration is counted.
        let k = key(7);
        let cases: Vec<(Packet, u8, Vec<u8>, &str)> = vec![
            (
                Packet::Ping {
                    version: 4,
                    from: ep(1),
                    to: ep(2),
                    expiration: 42,
                },
                0x01,
                {
                    let mut s = RlpStream::new_list(5);
                    s.append(&4u32)
                        .append(&ep(1))
                        .append(&ep(2))
                        .append(&42u64)
                        .append(&"x");
                    s.out()
                },
                "wire.extra.ping",
            ),
            (
                Packet::Pong {
                    to: ep(3),
                    ping_hash: [7u8; 32],
                    expiration: 43,
                },
                0x02,
                {
                    let mut s = RlpStream::new_list(4);
                    s.append(&ep(3));
                    s.append_bytes(&[7u8; 32]);
                    s.append(&43u64).append(&"x");
                    s.out()
                },
                "wire.extra.pong",
            ),
            (
                Packet::FindNode {
                    target: NodeId([0x11u8; 64]),
                    expiration: 44,
                },
                0x03,
                {
                    let mut s = RlpStream::new_list(3);
                    s.append(&NodeId([0x11u8; 64])).append(&44u64).append(&"x");
                    s.out()
                },
                "wire.extra.findnode",
            ),
            (
                Packet::Neighbors {
                    nodes: vec![NodeRecord::new(NodeId([0x22u8; 64]), ep(4))],
                    expiration: 45,
                },
                0x04,
                {
                    let mut s = RlpStream::new_list(3);
                    s.begin_list(1);
                    s.append(&NodeRecord::new(NodeId([0x22u8; 64]), ep(4)));
                    s.append(&45u64).append(&"x");
                    s.out()
                },
                "wire.extra.neighbors",
            ),
        ];
        for (expected, ptype, extended_body, counter) in cases {
            let d = sign_raw_body(&k, ptype, &extended_body);
            let rec = obs::Recorder::new();
            rec.install();
            let (sender, decoded, _) = decode_packet(&d).unwrap();
            obs::uninstall();
            assert_eq!(sender, NodeId::from_secret_key(&k));
            assert_eq!(decoded, expected, "type {ptype:#x}");
            assert_eq!(rec.counter(counter), 1, "counter {counter}");
        }
    }
}
