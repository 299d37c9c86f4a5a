//! Property tests for the DEVp2p session layer.

// Tests assert on impossible-failure paths freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use devp2p::{Capability, DisconnectReason, Hello, Message, Session, P2P_VERSION};
use enode::NodeId;
use proptest::prelude::*;

fn arb_capability() -> impl Strategy<Value = Capability> {
    ("[a-z]{2,8}", 1u32..100).prop_map(|(name, version)| Capability::new(&name, version))
}

fn arb_hello() -> impl Strategy<Value = Hello> {
    (
        ".{0,60}",
        proptest::collection::vec(arb_capability(), 0..6),
        any::<u16>(),
        proptest::array::uniform32(any::<u8>()),
    )
        .prop_map(|(client_id, capabilities, listen_port, half)| {
            let mut id = [0u8; 64];
            id[..32].copy_from_slice(&half);
            Hello {
                p2p_version: P2P_VERSION,
                client_id,
                capabilities,
                listen_port,
                node_id: NodeId(id),
            }
        })
}

proptest! {
    /// HELLO roundtrips for arbitrary client strings and capability sets.
    #[test]
    fn hello_roundtrip(hello in arb_hello()) {
        let msg = Message::Hello(hello);
        let payload = msg.encode_payload();
        prop_assert_eq!(Message::decode(0x00, &payload).unwrap(), msg);
    }

    /// Zero-capability HELLOs exist in the wild (and get Useless peer
    /// later): the codec must not conflate "empty list" with "missing",
    /// whatever p2p version the peer claims.
    #[test]
    fn hello_zero_capability_roundtrip(hello in arb_hello(), p2p_version in any::<u32>()) {
        let msg = Message::Hello(Hello { p2p_version, capabilities: Vec::new(), ..hello });
        let payload = msg.encode_payload();
        prop_assert_eq!(Message::decode(0x00, &payload).unwrap(), msg);
    }

    /// Message decode never panics on arbitrary payload bytes.
    #[test]
    fn decode_never_panics(id in 0u64..0x12, payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(id, &payload);
    }

    /// Capability negotiation is symmetric: both sides derive the same
    /// shared list (same names, versions, offsets).
    #[test]
    fn negotiation_symmetric(a_caps in proptest::collection::vec(arb_capability(), 0..6),
                             b_caps in proptest::collection::vec(arb_capability(), 0..6)) {
        let hello_a = Hello {
            p2p_version: P2P_VERSION,
            client_id: "a".into(),
            capabilities: a_caps,
            listen_port: 1,
            node_id: NodeId([1u8; 64]),
        };
        let hello_b = Hello {
            p2p_version: P2P_VERSION,
            client_id: "b".into(),
            capabilities: b_caps,
            listen_port: 2,
            node_id: NodeId([2u8; 64]),
        };
        let mut sa = Session::new(hello_a.clone());
        let mut sb = Session::new(hello_b.clone());
        for (id, payload) in sa.take_outbound() {
            let _ = sb.on_message(id, &payload);
        }
        for (id, payload) in sb.take_outbound() {
            let _ = sa.on_message(id, &payload);
        }
        prop_assert_eq!(sa.shared_capabilities(), sb.shared_capabilities());
        // windows are disjoint and ordered
        let shared = sa.shared_capabilities();
        for w in shared.windows(2) {
            prop_assert!(w[0].offset + w[0].length as u64 <= w[1].offset);
            prop_assert!(w[0].name < w[1].name);
        }
        for cap in shared {
            prop_assert!(cap.offset >= devp2p::BASE_PROTOCOL_OFFSET);
        }
    }

    /// Every defined disconnect reason survives the wire.
    #[test]
    fn disconnect_roundtrip(idx in 0usize..13) {
        let reason = DisconnectReason::ALL[idx];
        let msg = Message::Disconnect(reason);
        prop_assert_eq!(
            Message::decode(0x01, &msg.encode_payload()).unwrap(),
            Message::Disconnect(reason)
        );
    }

    /// A session never panics on arbitrary message streams — garbage
    /// HELLOs, junk STATUS bytes, unroutable ids. Every input yields a
    /// Result, and the session stays usable (or cleanly ended) after.
    #[test]
    fn session_never_panics_on_arbitrary_messages(
        stream in proptest::collection::vec(
            (0u64..0x40, proptest::collection::vec(any::<u8>(), 0..128)),
            1..16,
        ),
    ) {
        let local = Hello {
            p2p_version: P2P_VERSION,
            client_id: "fuzz".into(),
            capabilities: vec![Capability::new("eth", 63)],
            listen_port: 30303,
            node_id: NodeId([1u8; 64]),
        };
        let mut session = Session::new(local);
        for (id, payload) in &stream {
            let _ = session.on_message(*id, payload);
            let _ = session.take_outbound();
        }
        prop_assert!(!session.is_active() || session.remote_hello().is_some());
    }

    /// Same guarantee after a legitimate HELLO: an active session fed
    /// arbitrary bytes in the subprotocol id space never panics.
    #[test]
    fn active_session_never_panics_on_arbitrary_subprotocol_bytes(
        stream in proptest::collection::vec(
            (0u64..0x40, proptest::collection::vec(any::<u8>(), 0..128)),
            1..16,
        ),
    ) {
        let hello = |tag: u8| Hello {
            p2p_version: P2P_VERSION,
            client_id: format!("peer-{tag}"),
            capabilities: vec![Capability::new("eth", 63)],
            listen_port: 30303,
            node_id: NodeId([tag; 64]),
        };
        let mut session = Session::new(hello(1));
        let peer_hello = Message::Hello(hello(2));
        session
            .on_message(peer_hello.msg_id(), &peer_hello.encode_payload())
            .unwrap();
        prop_assert!(session.is_active());
        for (id, payload) in &stream {
            let _ = session.on_message(*id, payload);
            let _ = session.take_outbound();
        }
    }
}
