//! A minimal discv4 responder for adversarial hosts.
//!
//! Adversaries must be *discoverable* — the crawler only dials endpoints
//! that surface through the discovery overlay — but they don't need a full
//! routing table. [`Announcer`] pings its bootstrap list on start (so
//! honest tables learn the adversary's record) and answers every incoming
//! PING with a correctly-linked PONG (so the crawler's endpoint proof
//! succeeds and the dial proceeds). Everything else is handed back to the
//! owning host for behaviour-specific handling.

use discv4::{decode_packet, encode_packet, Packet};
use enode::{Endpoint, NodeId};
use ethcrypto::secp256k1::SecretKey;
use netsim::{Ctx, HostAddr};

/// Expiration slack on outgoing packets, in seconds (mirrors Geth's 20s).
const EXPIRATION_SLACK_S: u64 = 20;

/// Minimal discv4 presence: announce to bootstraps, answer PINGs.
#[derive(Debug)]
pub struct Announcer {
    key: SecretKey,
    bootstrap: Vec<Endpoint>,
    /// PINGs answered.
    pub pings_received: u64,
    /// PONGs sent (== pings received unless encoding fails).
    pub pongs_sent: u64,
}

impl Announcer {
    /// Build an announcer that will ping `bootstrap` on start.
    pub fn new(key: SecretKey, bootstrap: Vec<Endpoint>) -> Announcer {
        Announcer {
            key,
            bootstrap,
            pings_received: 0,
            pongs_sent: 0,
        }
    }

    /// The adversary's node identity.
    pub fn node_id(&self) -> NodeId {
        NodeId::from_secret_key(&self.key)
    }

    fn endpoint(addr: HostAddr) -> Endpoint {
        Endpoint {
            ip: addr.ip,
            udp_port: addr.port,
            tcp_port: addr.port,
        }
    }

    fn expiration(now_ms: u64) -> u64 {
        now_ms / 1000 + EXPIRATION_SLACK_S
    }

    /// Announce to every bootstrap endpoint (call from `Host::on_start`).
    pub fn on_start(&mut self, ctx: &mut Ctx) {
        let from = Self::endpoint(ctx.local_addr());
        let targets = self.bootstrap.clone();
        for to in targets {
            let ping = Packet::Ping {
                version: 4,
                from,
                to,
                expiration: Self::expiration(ctx.now_ms),
            };
            let (datagram, _) = encode_packet(&self.key, &ping);
            ctx.send_udp(HostAddr::new(to.ip, to.udp_port), datagram);
        }
    }

    /// Handle a datagram: PINGs are answered in place; every successfully
    /// decoded packet is returned for behaviour-specific handling.
    pub fn on_udp(
        &mut self,
        ctx: &mut Ctx,
        from: HostAddr,
        datagram: &[u8],
    ) -> Option<(NodeId, Packet)> {
        let (sender, packet, hash) = decode_packet(datagram).ok()?;
        if let Packet::Ping { from: from_ep, .. } = &packet {
            self.pings_received += 1;
            let to = Endpoint {
                ip: from.ip,
                udp_port: from.port,
                tcp_port: from_ep.tcp_port,
            };
            let pong = Packet::Pong {
                to,
                ping_hash: hash,
                expiration: Self::expiration(ctx.now_ms),
            };
            let (reply, _) = encode_packet(&self.key, &pong);
            ctx.send_udp(from, reply);
            self.pongs_sent += 1;
        }
        Some((sender, packet))
    }

    /// Sign and send a packet to `to` (used by tarpit floods).
    pub fn send(&self, ctx: &mut Ctx, to: HostAddr, packet: &Packet) {
        let (datagram, _) = encode_packet(&self.key, packet);
        ctx.send_udp(to, datagram);
    }

    /// The expiration a freshly sent packet should carry.
    pub fn fresh_expiration(now_ms: u64) -> u64 {
        Self::expiration(now_ms)
    }
}
