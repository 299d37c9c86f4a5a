//! The adversarial `Host` behaviours.
//!
//! Each behaviour announces via [`Announcer`] so crawlers discover it,
//! then misbehaves on the TCP side in one specific way. Counters are
//! public so scenario tests can assert the adversary was actually
//! exercised (a robustness test that never hits the fault path proves
//! nothing).

use crate::disc::Announcer;
use bytes::BytesMut;
use devp2p::{Capability, Hello, P2P_VERSION};
use discv4::{Packet, MAX_NEIGHBORS_PER_PACKET};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::keccak256;
use ethcrypto::secp256k1::SecretKey;
use ethpop::{PeerConn, WireEvent};
use ethwire::{EthMessage, Status};
use netsim::{ConnId, Ctx, Host, HostAddr, TcpEvent};
use rlpx::{expected_len, FrameCodec, Handshake, Role};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Buffer a stream until one complete prefixed RLPx handshake message is
/// available. Returns the framed message, leaving any remainder buffered.
fn take_handshake_msg(buf: &mut BytesMut) -> Option<Vec<u8>> {
    if buf.len() < 2 {
        return None;
    }
    let need = expected_len(&[buf[0], buf[1]]);
    if buf.len() < need {
        return None;
    }
    Some(buf.split_to(need).to_vec())
}

// ---------------------------------------------------------------------
// Slow loris
// ---------------------------------------------------------------------

/// ACKs the RLPx `auth`, then stalls forever.
///
/// The crawler authenticates the peer (RlpxEstablished fires) but never
/// receives a HELLO; only a per-stage timeout reaps the probe. This is
/// the paper's dominant failure mode: dialed, crypto fine, no DEVp2p.
#[derive(Debug)]
pub struct SlowLoris {
    key: SecretKey,
    disc: Announcer,
    bufs: BTreeMap<ConnId, BytesMut>,
    /// Auth messages answered with a valid ack.
    pub auths_acked: u64,
}

impl SlowLoris {
    /// Build with an identity and bootstrap endpoints to announce to.
    pub fn new(key: SecretKey, bootstrap: Vec<Endpoint>) -> SlowLoris {
        SlowLoris {
            key,
            disc: Announcer::new(key, bootstrap),
            bufs: BTreeMap::new(),
            auths_acked: 0,
        }
    }

    /// The adversary's identity.
    pub fn node_id(&self) -> NodeId {
        self.disc.node_id()
    }
}

impl Host for SlowLoris {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.disc.on_start(ctx);
    }

    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        self.disc.on_udp(ctx, from, datagram);
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Incoming { conn, .. } => {
                self.bufs.insert(conn, BytesMut::new());
            }
            TcpEvent::Data { conn, bytes } => {
                let Some(buf) = self.bufs.get_mut(&conn) else {
                    return;
                };
                buf.extend_from_slice(&bytes);
                if let Some(msg) = take_handshake_msg(buf) {
                    let mut hs = Handshake::new(Role::Recipient, self.key, ctx.rng());
                    if let Ok(ack) = hs.read_auth(ctx.rng(), &msg) {
                        ctx.tcp_send(conn, ack);
                        self.auths_acked += 1;
                    }
                    // ... and then nothing, ever. The socket stays open.
                }
            }
            TcpEvent::Closed { conn } => {
                self.bufs.remove(&conn);
            }
            TcpEvent::Connected { .. } | TcpEvent::ConnectFailed { .. } => {}
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}

    fn on_stop(&mut self, _ctx: &mut Ctx) {
        self.bufs.clear();
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

// ---------------------------------------------------------------------
// Garbage HELLO
// ---------------------------------------------------------------------

/// Completes the RLPx handshake, then sends a correctly framed but
/// undecodable HELLO.
///
/// The frame layer accepts it (MAC and ciphertext are valid), so the
/// error surfaces inside `devp2p::session` — the crawler must classify
/// this as a protocol error, not a crypto failure.
#[derive(Debug)]
pub struct GarbageHello {
    key: SecretKey,
    disc: Announcer,
    bufs: BTreeMap<ConnId, BytesMut>,
    /// Garbage HELLO frames sent.
    pub garbage_sent: u64,
}

impl GarbageHello {
    /// Build with an identity and bootstrap endpoints to announce to.
    pub fn new(key: SecretKey, bootstrap: Vec<Endpoint>) -> GarbageHello {
        GarbageHello {
            key,
            disc: Announcer::new(key, bootstrap),
            bufs: BTreeMap::new(),
            garbage_sent: 0,
        }
    }

    /// The adversary's identity.
    pub fn node_id(&self) -> NodeId {
        self.disc.node_id()
    }
}

impl Host for GarbageHello {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.disc.on_start(ctx);
    }

    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        self.disc.on_udp(ctx, from, datagram);
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Incoming { conn, .. } => {
                self.bufs.insert(conn, BytesMut::new());
            }
            TcpEvent::Data { conn, bytes } => {
                let Some(buf) = self.bufs.get_mut(&conn) else {
                    return;
                };
                buf.extend_from_slice(&bytes);
                if let Some(msg) = take_handshake_msg(buf) {
                    let mut hs = Handshake::new(Role::Recipient, self.key, ctx.rng());
                    let Ok(ack) = hs.read_auth(ctx.rng(), &msg) else {
                        ctx.tcp_close(conn);
                        return;
                    };
                    ctx.tcp_send(conn, ack);
                    if let Ok(secrets) = hs.secrets() {
                        let mut codec = FrameCodec::new(secrets);
                        // msg id 0x00 (HELLO) followed by a payload that is
                        // not a valid HELLO RLP list.
                        let mut frame = rlp::encode(&0u64);
                        frame.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
                        ctx.tcp_send(conn, codec.write_frame(&frame));
                        self.garbage_sent += 1;
                    }
                }
            }
            TcpEvent::Closed { conn } => {
                self.bufs.remove(&conn);
            }
            TcpEvent::Connected { .. } | TcpEvent::ConnectFailed { .. } => {}
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}

    fn on_stop(&mut self, _ctx: &mut Ctx) {
        self.bufs.clear();
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

// ---------------------------------------------------------------------
// Wrong genesis
// ---------------------------------------------------------------------

/// A fully protocol-conformant peer on the wrong chain.
///
/// Handshake and HELLO succeed, but its eth STATUS carries a bogus
/// genesis hash — the paper's "other Ethereum network" population
/// (§5.1), which NodeFinder must count as responsive-but-incompatible
/// rather than Mainnet.
#[derive(Debug)]
pub struct WrongGenesis {
    key: SecretKey,
    disc: Announcer,
    conns: BTreeMap<ConnId, PeerConn>,
    /// The genesis hash to claim.
    pub genesis: [u8; 32],
    /// STATUS messages sent.
    pub statuses_sent: u64,
}

impl WrongGenesis {
    /// Build with an identity and bootstrap endpoints to announce to.
    pub fn new(key: SecretKey, bootstrap: Vec<Endpoint>) -> WrongGenesis {
        WrongGenesis {
            key,
            disc: Announcer::new(key, bootstrap),
            conns: BTreeMap::new(),
            genesis: [0xEE; 32],
            statuses_sent: 0,
        }
    }

    /// The adversary's identity.
    pub fn node_id(&self) -> NodeId {
        self.disc.node_id()
    }

    fn local_hello(&self, addr: HostAddr) -> Hello {
        Hello {
            p2p_version: P2P_VERSION,
            client_id: "Geth/v1.8.2-othernet/linux-amd64/go1.9".into(),
            capabilities: vec![Capability::eth63()],
            listen_port: addr.port,
            node_id: self.node_id(),
        }
    }

    fn status(&self) -> Status {
        Status {
            protocol_version: 63,
            network_id: 1,
            total_difficulty: 17,
            best_hash: self.genesis,
            genesis_hash: self.genesis,
        }
    }
}

impl Host for WrongGenesis {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.disc.on_start(ctx);
    }

    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        self.disc.on_udp(ctx, from, datagram);
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Incoming { conn, .. } => {
                let hello = self.local_hello(ctx.local_addr());
                self.conns
                    .insert(conn, PeerConn::accepted(conn, hello, ctx.now_ms));
            }
            TcpEvent::Data { conn, bytes } => {
                let key = self.key;
                let Some(pc) = self.conns.get_mut(&conn) else {
                    return;
                };
                let (events, out) = pc.on_data(ctx.rng(), &key, &bytes);
                for f in out {
                    ctx.tcp_send(conn, f);
                }
                for e in events {
                    match e {
                        WireEvent::Hello { shared, .. }
                            if shared.iter().any(|c| c.name == "eth") =>
                        {
                            let st = self.status();
                            if let Some(pc) = self.conns.get_mut(&conn) {
                                let frames = pc.send_eth(&EthMessage::Status(st));
                                if !frames.is_empty() {
                                    self.statuses_sent += 1;
                                }
                                for f in frames {
                                    ctx.tcp_send(conn, f);
                                }
                            }
                        }
                        WireEvent::Disconnected(_) | WireEvent::ProtocolError(_) => {
                            ctx.tcp_close(conn);
                            self.conns.remove(&conn);
                            return;
                        }
                        _ => {}
                    }
                }
                if self.conns.get(&conn).map(|p| p.is_dead()).unwrap_or(false) {
                    ctx.tcp_close(conn);
                    self.conns.remove(&conn);
                }
            }
            TcpEvent::Closed { conn } => {
                self.conns.remove(&conn);
            }
            TcpEvent::Connected { .. } | TcpEvent::ConnectFailed { .. } => {}
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}

    fn on_stop(&mut self, _ctx: &mut Ctx) {
        self.conns.clear();
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

// ---------------------------------------------------------------------
// Discv4 tarpit
// ---------------------------------------------------------------------

/// Answers FINDNODE with floods of fake neighbours.
///
/// Every record points at a TEST-NET address that either doesn't exist
/// or refuses connections, so the crawler's dial queue fills with
/// discovered-but-unconnectable endpoints — the discovery-layer
/// pollution behind the paper's huge discovered-vs-responsive gap
/// (Figs. 6–7). The crawler must keep servicing honest peers while its
/// backoff/penalty machinery absorbs the junk.
#[derive(Debug)]
pub struct Tarpit {
    disc: Announcer,
    /// Fake records per FINDNODE (split into 12-per-packet NEIGHBORS).
    pub fakes_per_query: usize,
    /// Total fake records announced.
    pub fakes_sent: u64,
    /// FINDNODE queries served.
    pub queries_served: u64,
    counter: u64,
}

impl Tarpit {
    /// Build with an identity and bootstrap endpoints to announce to.
    pub fn new(key: SecretKey, bootstrap: Vec<Endpoint>) -> Tarpit {
        Tarpit {
            disc: Announcer::new(key, bootstrap),
            fakes_per_query: 48,
            fakes_sent: 0,
            queries_served: 0,
            counter: 0,
        }
    }

    /// The adversary's identity.
    pub fn node_id(&self) -> NodeId {
        self.disc.node_id()
    }

    /// Deterministic fake record #n: a hash-derived identity on a
    /// TEST-NET-2 (RFC 5737) address.
    fn fake_record(&mut self) -> NodeRecord {
        self.counter += 1;
        let mut seed = [0u8; 16];
        seed[..8].copy_from_slice(b"tarpit!!");
        seed[8..].copy_from_slice(&self.counter.to_be_bytes());
        let a = keccak256(&seed);
        let b = keccak256(&a);
        let mut id = [0u8; 64];
        id[..32].copy_from_slice(&a);
        id[32..].copy_from_slice(&b);
        let ip = Ipv4Addr::new(198, 51, 100, (self.counter % 250) as u8 + 1);
        NodeRecord::new(NodeId(id), Endpoint::new(ip, 30303))
    }
}

impl Host for Tarpit {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.disc.on_start(ctx);
    }

    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        let Some((_, packet)) = self.disc.on_udp(ctx, from, datagram) else {
            return;
        };
        if let Packet::FindNode { .. } = packet {
            self.queries_served += 1;
            let mut remaining = self.fakes_per_query;
            while remaining > 0 {
                let n = remaining.min(MAX_NEIGHBORS_PER_PACKET);
                let nodes: Vec<NodeRecord> = (0..n).map(|_| self.fake_record()).collect();
                self.fakes_sent += nodes.len() as u64;
                let neighbors = Packet::Neighbors {
                    nodes,
                    expiration: Announcer::fresh_expiration(ctx.now_ms),
                };
                self.disc.send(ctx, from, &neighbors);
                remaining -= n;
            }
        }
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        // The tarpit itself never talks DEVp2p: drop incoming dials.
        if let TcpEvent::Incoming { conn, .. } = event {
            ctx.tcp_close(conn);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

// ---------------------------------------------------------------------
// Reset after N bytes
// ---------------------------------------------------------------------

/// Accepts TCP, then abortively closes once N bytes have arrived.
///
/// With the default threshold the close lands mid-auth, so the crawler
/// observes an established-then-reset connection with no authenticated
/// identity — the remote-reset failure class.
#[derive(Debug)]
pub struct ResetAfterN {
    disc: Announcer,
    /// Bytes tolerated before the reset.
    pub threshold: usize,
    received: BTreeMap<ConnId, usize>,
    /// Connections reset.
    pub resets: u64,
}

impl ResetAfterN {
    /// Build with an identity and bootstrap endpoints to announce to.
    pub fn new(key: SecretKey, bootstrap: Vec<Endpoint>) -> ResetAfterN {
        ResetAfterN {
            disc: Announcer::new(key, bootstrap),
            threshold: 100,
            received: BTreeMap::new(),
            resets: 0,
        }
    }

    /// The adversary's identity.
    pub fn node_id(&self) -> NodeId {
        self.disc.node_id()
    }
}

impl Host for ResetAfterN {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.disc.on_start(ctx);
    }

    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        self.disc.on_udp(ctx, from, datagram);
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Incoming { conn, .. } => {
                self.received.insert(conn, 0);
            }
            TcpEvent::Data { conn, bytes } => {
                let Some(total) = self.received.get_mut(&conn) else {
                    return;
                };
                *total += bytes.len();
                if *total >= self.threshold {
                    ctx.tcp_close(conn);
                    self.received.remove(&conn);
                    self.resets += 1;
                }
            }
            TcpEvent::Closed { conn } => {
                self.received.remove(&conn);
            }
            TcpEvent::Connected { .. } | TcpEvent::ConnectFailed { .. } => {}
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}

    fn on_stop(&mut self, _ctx: &mut Ctx) {
        self.received.clear();
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(b: u8) -> SecretKey {
        SecretKey::from_bytes(&[b; 32]).expect("valid key bytes")
    }

    #[test]
    fn tarpit_fakes_are_deterministic_and_distinct() {
        let mut t1 = Tarpit::new(key(1), vec![]);
        let mut t2 = Tarpit::new(key(1), vec![]);
        let a: Vec<NodeRecord> = (0..20).map(|_| t1.fake_record()).collect();
        let b: Vec<NodeRecord> = (0..20).map(|_| t2.fake_record()).collect();
        assert_eq!(a, b);
        let ids: std::collections::BTreeSet<NodeId> = a.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 20, "fake identities must be distinct");
        for r in &a {
            assert_eq!(r.endpoint.ip.octets()[..3], [198, 51, 100]);
        }
    }

    #[test]
    fn slow_loris_acks_a_real_auth() {
        // Drive the handshake message framing directly: an initiator's
        // auth must elicit exactly one valid ack and nothing more.
        let mut rng = StdRng::seed_from_u64(42);
        let loris_key = key(2);
        let dialer_key = key(3);
        let mut hs = Handshake::new(Role::Initiator, dialer_key, &mut rng);
        let auth = hs
            .write_auth(&mut rng, &NodeId::from_secret_key(&loris_key))
            .expect("auth encodes");

        let mut buf = BytesMut::new();
        buf.extend_from_slice(&auth);
        let msg = take_handshake_msg(&mut buf).expect("complete auth frames");
        let mut recipient = Handshake::new(Role::Recipient, loris_key, &mut rng);
        let ack = recipient.read_auth(&mut rng, &msg).expect("auth accepted");
        hs.read_ack(&ack).expect("ack accepted");
        assert!(buf.is_empty());
    }

    #[test]
    fn handshake_framing_waits_for_full_message() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[0x01]);
        assert!(take_handshake_msg(&mut buf).is_none());
        buf.extend_from_slice(&[0x00]); // length prefix 0x0100 = 256
        assert!(take_handshake_msg(&mut buf).is_none());
        buf.extend_from_slice(&vec![0u8; 256]);
        let msg = take_handshake_msg(&mut buf).expect("complete");
        assert_eq!(msg.len(), 258);
        assert!(buf.is_empty());
    }

    #[test]
    fn wrong_genesis_status_is_incompatible_with_mainnet() {
        let w = WrongGenesis::new(key(4), vec![]);
        let st = w.status();
        let chain = ethwire::Chain::new(ethwire::ChainConfig::mainnet(), 100);
        let mainnet = Status {
            protocol_version: 63,
            network_id: chain.config.network_id,
            total_difficulty: chain.total_difficulty(),
            best_hash: chain.best_hash(),
            genesis_hash: chain.config.genesis_hash,
        };
        assert!(!mainnet.compatible(&st));
    }
}
