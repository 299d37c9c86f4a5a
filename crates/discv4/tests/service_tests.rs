//! Integration tests driving two (or more) Discv4 engines against each
//! other entirely in memory — a micro network with perfect links.

// Tests assert on impossible-failure paths freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use discv4::{Config, Discv4, Event, Outgoing};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A toy in-memory switch: routes Outgoing datagrams to engines by UDP
/// endpoint, instantly.
struct Net {
    engines: BTreeMap<Endpoint, Discv4>,
}

impl Net {
    fn new() -> Net {
        Net {
            engines: BTreeMap::new(),
        }
    }

    fn add(&mut self, seed: u8, last_octet: u8) -> (NodeRecord, Endpoint) {
        let key = SecretKey::from_bytes(&[seed; 32]).unwrap();
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, last_octet), 30303);
        let record = NodeRecord::new(NodeId::from_secret_key(&key), ep);
        let engine = Discv4::new(key, ep, Config::default());
        self.engines.insert(ep, engine);
        (record, ep)
    }

    /// Deliver a batch of outgoing datagrams, collecting the replies, until
    /// the network is quiet. Each "round" also identifies the sender by
    /// the destination engine's view (source endpoint must be supplied).
    fn run(&mut self, mut batch: Vec<(Endpoint, Outgoing)>, now_ms: u64) {
        let mut guard = 0;
        while !batch.is_empty() {
            guard += 1;
            assert!(guard < 1000, "network did not quiesce");
            let mut next = Vec::new();
            for (from, out) in batch {
                if let Some(engine) = self.engines.get_mut(&out.to) {
                    let replies = engine.on_datagram(from, &out.datagram, now_ms);
                    for r in replies {
                        next.push((out.to, r));
                    }
                }
            }
            batch = next;
        }
    }

    fn engine(&mut self, ep: &Endpoint) -> &mut Discv4 {
        self.engines.get_mut(ep).unwrap()
    }
}

#[test]
fn ping_pong_establishes_bond_and_table_entries() {
    let mut net = Net::new();
    let (rec_a, ep_a) = net.add(1, 1);
    let (rec_b, ep_b) = net.add(2, 2);

    let ping = net.engine(&ep_a).ping(rec_b, 0);
    net.run(vec![(ep_a, ping)], 0);

    let events_a = net.engine(&ep_a).take_events();
    assert!(
        events_a
            .iter()
            .any(|e| matches!(e, Event::NodeVerified(r) if r.id == rec_b.id)),
        "A should have verified B: {events_a:?}"
    );
    assert!(net.engine(&ep_a).table().contains(&rec_b.id));
    // B learned A from the incoming ping (and pinged back, so verified too).
    let events_b = net.engine(&ep_b).take_events();
    assert!(events_b
        .iter()
        .any(|e| matches!(e, Event::NodeSeen(r) if r.id == rec_a.id)));
    assert!(net.engine(&ep_b).table().contains(&rec_a.id));
}

#[test]
fn findnode_without_bond_is_ignored() {
    let mut net = Net::new();
    let (_, ep_a) = net.add(3, 1);
    let (rec_b, ep_b) = net.add(4, 2);

    // A sends FINDNODE to B without ever bonding: B must not answer.
    let out = net.engine(&ep_a).start_lookup(NodeId([9u8; 64]), 0);
    // A's table is empty so the lookup is trivially done with nothing sent.
    assert!(out.is_empty());
    let events = net.engine(&ep_a).take_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::LookupDone { queries: 0, .. })));

    // Force: hand-craft by bonding first then clearing — simpler check of
    // the refusal path: B receives a findnode from an unknown sender.
    let key_c = SecretKey::from_bytes(&[5u8; 32]).unwrap();
    let (dg, _) = discv4::encode_packet(
        &key_c,
        &discv4::Packet::FindNode {
            target: rec_b.id,
            expiration: u64::MAX / 2,
        },
    );
    let ep_c = Endpoint::new(Ipv4Addr::new(10, 0, 0, 3), 30303);
    let replies = net.engine(&ep_b).on_datagram(ep_c, &dg, 0);
    assert!(replies.is_empty(), "unbonded FINDNODE must be dropped");
    assert_eq!(net.engine(&ep_b).stats().drops, 1);
}

#[test]
fn full_lookup_discovers_nodes_through_intermediary() {
    let mut net = Net::new();
    let (rec_hub, _ep_hub) = net.add(10, 10);
    let (_rec_a, ep_a) = net.add(11, 11);
    // Ten leaf nodes bond with the hub so its table knows them.
    let mut leaves = Vec::new();
    for i in 0..10u8 {
        let (rec, ep) = net.add(20 + i, 20 + i);
        leaves.push((rec, ep));
    }
    for (rec_leaf, ep_leaf) in &leaves {
        let _ = rec_leaf;
        let ping = net.engine(ep_leaf).ping(rec_hub, 0);
        net.run(vec![(*ep_leaf, ping)], 0);
    }
    // A bonds with the hub.
    let ping = net.engine(&ep_a).ping(rec_hub, 1);
    net.run(vec![(ep_a, ping)], 1);
    net.engine(&ep_a).take_events();

    // A runs a lookup: it should learn the leaves from the hub.
    let out = net.engine(&ep_a).start_lookup(NodeId([0x77u8; 64]), 2);
    assert!(!out.is_empty());
    let batch: Vec<_> = out.into_iter().map(|o| (ep_a, o)).collect();
    net.run(batch, 2);
    // pump timers to flush the lookup completion
    let more = net.engine(&ep_a).poll(10_000);
    let batch: Vec<_> = more.into_iter().map(|o| (ep_a, o)).collect();
    net.run(batch, 10_000);
    let more = net.engine(&ep_a).poll(20_000);
    let batch: Vec<_> = more.into_iter().map(|o| (ep_a, o)).collect();
    net.run(batch, 20_000);

    let events = net.engine(&ep_a).take_events();
    let seen: Vec<NodeId> = events
        .iter()
        .filter_map(|e| match e {
            Event::NodeSeen(r) => Some(r.id),
            _ => None,
        })
        .collect();
    let leaves_seen = leaves.iter().filter(|(r, _)| seen.contains(&r.id)).count();
    assert!(
        leaves_seen >= 8,
        "lookup should surface most leaves, got {leaves_seen}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::LookupDone { queries, .. } if *queries > 0)),
        "lookup should complete: {events:?}"
    );
}

#[test]
fn expired_packets_dropped() {
    let mut net = Net::new();
    let (_, ep_a) = net.add(30, 1);
    let (rec_b, ep_b) = net.add(31, 2);

    // Build a ping at t=0 (expiry = 20s) and deliver it at t=60s.
    let ping = net.engine(&ep_a).ping(rec_b, 0);
    let late_ms = 60_000;
    let replies = net.engine(&ep_b).on_datagram(ep_a, &ping.datagram, late_ms);
    assert!(replies.is_empty());
    assert_eq!(net.engine(&ep_b).stats().drops, 1);
}

#[test]
fn ping_timeout_clears_pending() {
    let mut net = Net::new();
    let (_, ep_a) = net.add(32, 1);
    // B does not exist on the network (dial to black hole).
    let ghost = NodeRecord::new(
        NodeId([0xAAu8; 64]),
        Endpoint::new(Ipv4Addr::new(10, 9, 9, 9), 30303),
    );
    let _ping = net.engine(&ep_a).ping(ghost, 0);
    let out = net.engine(&ep_a).poll(1_000);
    assert!(out.is_empty());
    // No verification event ever appears.
    let events = net.engine(&ep_a).take_events();
    assert!(!events.iter().any(|e| matches!(e, Event::NodeVerified(_))));
}

#[test]
fn unsolicited_pong_dropped() {
    let mut net = Net::new();
    let (rec_a, ep_a) = net.add(33, 1);
    let key_b = SecretKey::from_bytes(&[34u8; 32]).unwrap();
    let (dg, _) = discv4::encode_packet(
        &key_b,
        &discv4::Packet::Pong {
            to: rec_a.endpoint,
            ping_hash: [1u8; 32],
            expiration: u64::MAX / 2,
        },
    );
    let ep_b = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 30303);
    let replies = net.engine(&ep_a).on_datagram(ep_b, &dg, 0);
    assert!(replies.is_empty());
    assert_eq!(net.engine(&ep_a).stats().drops, 1);
}

#[test]
fn stats_track_traffic() {
    let mut net = Net::new();
    let (_, ep_a) = net.add(40, 1);
    let (rec_b, ep_b) = net.add(41, 2);
    let ping = net.engine(&ep_a).ping(rec_b, 0);
    net.run(vec![(ep_a, ping)], 0);
    let sa = net.engine(&ep_a).stats();
    assert_eq!(sa.pings_sent, 1);
    assert_eq!(sa.pongs_received, 1);
    let sb = net.engine(&ep_b).stats();
    assert_eq!(sb.pings_sent, 1, "B pings back to bond");
}

#[test]
fn delayed_ping_is_dropped_as_expired_and_elicits_no_pong() {
    // Regression for the expiration check: a PING stamped at t=0 carries
    // expiration = now/1000 + 20s. Delivered after that window (a 25 s
    // latency spike), it must be dropped and counted — NOT answered.
    let mut net = Net::new();
    let (rec_a, ep_a) = net.add(50, 1);
    let (rec_b, ep_b) = net.add(51, 2);

    let ping = net.engine(&ep_a).ping(rec_b, 0);

    let rec = obs::Recorder::new();
    rec.install();
    let replies = net.engine(&ep_b).on_datagram(ep_a, &ping.datagram, 25_000);
    obs::uninstall();
    assert!(replies.is_empty(), "stale PING must not elicit a PONG");
    let stats = net.engine(&ep_b).stats();
    assert_eq!(stats.expired_drops, 1);
    assert_eq!(stats.drops, 1);
    assert_eq!(rec.counter("discv4.expired_dropped"), 1);

    // The same datagram delivered inside the window is answered normally.
    let replies = net.engine(&ep_b).on_datagram(ep_a, &ping.datagram, 5_000);
    assert!(
        !replies.is_empty(),
        "fresh PING must be answered with a PONG"
    );
    let (_, reply, _) = discv4::decode_packet(&replies[0].datagram).unwrap();
    assert!(matches!(reply, discv4::Packet::Pong { .. }));
    assert_eq!(replies[0].to, rec_a.endpoint);
    assert_eq!(net.engine(&ep_b).stats().expired_drops, 1);
}

/// A peer driven by hand: its key signs whatever packet a test sends.
fn raw_peer(seed: u8, last_octet: u8) -> (SecretKey, NodeRecord) {
    let key = SecretKey::from_bytes(&[seed; 32]).unwrap();
    let ep = Endpoint::new(Ipv4Addr::new(10, 0, 1, last_octet), 30303);
    (key, NodeRecord::new(NodeId::from_secret_key(&key), ep))
}

/// Sign `packet` with `key` and deliver it to `engine` as if from `from`.
fn deliver(
    engine: &mut Discv4,
    key: &SecretKey,
    from: Endpoint,
    packet: discv4::Packet,
    now_ms: u64,
) -> Vec<Outgoing> {
    let (dg, _) = discv4::encode_packet(key, &packet);
    engine.on_datagram(from, &dg, now_ms)
}

fn ping_from(peer: &NodeRecord, to: Endpoint) -> discv4::Packet {
    discv4::Packet::Ping {
        version: 4,
        from: peer.endpoint,
        to,
        expiration: u64::MAX / 2,
    }
}

fn findnode() -> discv4::Packet {
    discv4::Packet::FindNode {
        target: NodeId([0x42; 64]),
        expiration: u64::MAX / 2,
    }
}

/// Answer the PING among `out` that is addressed to `peer` with its PONG.
fn pong_for(out: &[Outgoing], peer: &NodeRecord) -> discv4::Packet {
    let ping_hash = out
        .iter()
        .filter(|o| o.to == peer.endpoint)
        .find_map(|o| match discv4::decode_packet(&o.datagram).unwrap() {
            (_, discv4::Packet::Ping { .. }, hash) => Some(hash),
            _ => None,
        })
        .expect("a PING to the peer");
    discv4::Packet::Pong {
        to: peer.endpoint,
        ping_hash,
        expiration: u64::MAX / 2,
    }
}

fn assert_neighbors_to(replies: &[Outgoing], to: Endpoint) {
    assert!(!replies.is_empty(), "FINDNODE must be answered");
    for r in replies {
        assert_eq!(r.to, to);
        let (_, packet, _) = discv4::decode_packet(&r.datagram).unwrap();
        assert!(matches!(packet, discv4::Packet::Neighbors { .. }));
    }
}

#[test]
fn findnode_from_a_peer_that_only_pinged_is_answered_at_the_source() {
    let mut net = Net::new();
    let (_, ep_b) = net.add(60, 2);
    let (key_c, rec_c) = raw_peer(61, 3);
    let b = net.engine(&ep_b);
    // C pings B and never answers B's PING back: B holds no proof of C.
    deliver(b, &key_c, rec_c.endpoint, ping_from(&rec_c, ep_b), 0);
    let elsewhere = Endpoint::new(Ipv4Addr::new(10, 0, 1, 99), 40404);
    let replies = deliver(b, &key_c, elsewhere, findnode(), 1_000);
    assert_neighbors_to(&replies, elsewhere);
    assert_eq!(b.stats().drops, 0);
}

#[test]
fn findnode_from_a_verified_peer_is_answered_at_the_pinged_endpoint() {
    let mut net = Net::new();
    let (_, ep_b) = net.add(62, 2);
    let (key_c, rec_c) = raw_peer(63, 3);
    let b = net.engine(&ep_b);
    // B pings C and C answers: B has verified C, C never pinged B.
    let ping = b.ping(rec_c, 0);
    let pong = pong_for(&[ping], &rec_c);
    deliver(b, &key_c, rec_c.endpoint, pong, 0);
    let elsewhere = Endpoint::new(Ipv4Addr::new(10, 0, 1, 99), 40404);
    let replies = deliver(b, &key_c, elsewhere, findnode(), 1_000);
    assert_neighbors_to(&replies, rec_c.endpoint);
    assert_eq!(b.stats().drops, 0);
}

#[test]
fn findnode_after_both_bond_stamps_expire_is_dropped() {
    let mut net = Net::new();
    let (_, ep_b) = net.add(64, 2);
    let (key_c, rec_c) = raw_peer(65, 3);
    let b = net.engine(&ep_b);
    // Both halves at t = 0: C pings B, B pings back, C answers.
    let out = deliver(b, &key_c, rec_c.endpoint, ping_from(&rec_c, ep_b), 0);
    let pong = pong_for(&out, &rec_c);
    deliver(b, &key_c, rec_c.endpoint, pong, 0);
    let expiry = Config::default().bond_expiry_ms;
    let replies = deliver(b, &key_c, rec_c.endpoint, findnode(), expiry - 1);
    assert_neighbors_to(&replies, rec_c.endpoint);
    let drops = b.stats().drops;
    let replies = deliver(b, &key_c, rec_c.endpoint, findnode(), expiry);
    assert!(replies.is_empty(), "an expired bond must not be answered");
    assert_eq!(b.stats().drops, drops + 1);
}
