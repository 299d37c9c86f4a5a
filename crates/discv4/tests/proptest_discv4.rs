//! Property tests for the discv4 wire format: arbitrary field values
//! roundtrip; arbitrary bytes never panic the decoder; tampering is always
//! detected.

// Tests assert on impossible-failure paths freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use discv4::{decode_packet, encode_packet, Packet, MAX_NEIGHBORS_PER_PACKET};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<[u8; 4]>(), any::<u16>(), any::<u16>()).prop_map(|(ip, udp, tcp)| Endpoint {
        ip: Ipv4Addr::from(ip),
        udp_port: udp,
        tcp_port: tcp,
    })
}

fn arb_record() -> impl Strategy<Value = NodeRecord> {
    (proptest::array::uniform32(any::<u8>()), arb_endpoint()).prop_map(|(half, ep)| {
        let mut id = [0u8; 64];
        id[..32].copy_from_slice(&half);
        id[40] = 0x77;
        NodeRecord::new(NodeId(id), ep)
    })
}

fn arb_key() -> impl Strategy<Value = SecretKey> {
    proptest::array::uniform32(1u8..=255)
        .prop_filter_map("valid", |b| SecretKey::from_bytes(&b).ok())
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        (any::<u32>(), arb_endpoint(), arb_endpoint(), any::<u64>()).prop_map(
            |(version, from, to, expiration)| Packet::Ping {
                version,
                from,
                to,
                expiration
            }
        ),
        (
            arb_endpoint(),
            proptest::array::uniform32(any::<u8>()),
            any::<u64>()
        )
            .prop_map(|(to, ping_hash, expiration)| Packet::Pong {
                to,
                ping_hash,
                expiration
            }),
        // Every byte of the 64-byte target is drawn.
        (
            proptest::array::uniform32(any::<u8>()),
            proptest::array::uniform32(any::<u8>()),
            any::<u64>()
        )
            .prop_map(|(hi, lo, expiration)| {
                let mut id = [0u8; 64];
                id[..32].copy_from_slice(&hi);
                id[32..].copy_from_slice(&lo);
                Packet::FindNode {
                    target: NodeId(id),
                    expiration,
                }
            }),
        (proptest::collection::vec(arb_record(), 0..12), any::<u64>())
            .prop_map(|(nodes, expiration)| Packet::Neighbors { nodes, expiration }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary packets roundtrip, the sender is always recovered, and
    /// the hash binds the content.
    #[test]
    fn packet_roundtrip(key in arb_key(), packet in arb_packet()) {
        let (datagram, hash) = encode_packet(&key, &packet);
        let (sender, decoded, rhash) = decode_packet(&datagram).unwrap();
        prop_assert_eq!(sender, NodeId::from_secret_key(&key));
        prop_assert_eq!(decoded, packet);
        prop_assert_eq!(rhash, hash);
    }

    /// The size cap is load-bearing: a NEIGHBORS packet at the full
    /// 12-record cap stays under the 1,280-byte datagram budget and
    /// roundtrips.
    #[test]
    fn neighbors_max_size_roundtrip(
        key in arb_key(),
        nodes in proptest::collection::vec(
            arb_record(),
            MAX_NEIGHBORS_PER_PACKET..=MAX_NEIGHBORS_PER_PACKET,
        ),
        expiration in any::<u64>(),
    ) {
        let packet = Packet::Neighbors { nodes, expiration };
        let (datagram, _) = encode_packet(&key, &packet);
        prop_assert!(datagram.len() < 1280, "datagram {} bytes", datagram.len());
        let (_, decoded, _) = decode_packet(&datagram).unwrap();
        prop_assert_eq!(decoded, packet);
    }

    /// Flipping any single byte is detected (hash/signature/structure).
    #[test]
    fn single_byte_tamper_detected(key in arb_key(), packet in arb_packet(), pos_seed in any::<usize>()) {
        let (mut datagram, _) = encode_packet(&key, &packet);
        let pos = pos_seed % datagram.len();
        datagram[pos] ^= 0x01;
        match decode_packet(&datagram) {
            Err(_) => {}
            Ok((sender, decoded, _)) => {
                // a mutation that survives must have changed sender or body
                // relative to the original — it cannot silently pass through
                prop_assert!(
                    sender != NodeId::from_secret_key(&key) || decoded != packet,
                    "tampered packet decoded identically"
                );
            }
        }
    }
}

proptest! {
    /// The decoder never panics on arbitrary byte soup.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = decode_packet(&bytes);
    }
}
