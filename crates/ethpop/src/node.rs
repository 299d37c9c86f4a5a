//! `EthNode`: a behavioral Ethereum node driving the full protocol stack
//! over the simulator.
//!
//! One implementation covers every population member — Geth-like,
//! Parity-like, light clients, non-Ethereum services, and the §5.4
//! identity-rotating spammers — differentiated entirely by
//! [`NodeProfile`]. The event-handling is deliberately *event-driven with
//! armed timers*: a node at peer capacity with no pending protocol state
//! schedules nothing, so large worlds stay cheap to simulate (the same
//! property the paper exploits: Geth only discovers when it has free peer
//! slots).
//!
//! A node is what outlives a run ([`Kept`]) plus, while it runs, what
//! [`Host::on_stop`] drops ([`Running`]). The handlers are `Running`
//! methods that take the `Kept` half as an argument. The engine calls
//! only `on_start` on a stopped host, so each [`Host`] callback opens the
//! box once, and only an image whose engine slot and `ETHN` section
//! disagree (a live host that is not running) finds it empty.

mod snapshot;
#[cfg(test)]
mod tests;

use crate::clients::{ClientKind, NodeProfile, ServiceKind};
use crate::stats::{eth_label, NodeStats, NO_STATS};
use crate::wire::{PeerConn, WireEvent};
use devp2p::DisconnectReason;
use discv4::{Discv4, Event as DiscEvent, Outgoing};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use ethwire::{BlockId, EthMessage};
use netsim::{ConnId, Ctx, Host, HostAddr, SnapError, SnapWriter, TcpEvent};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::mem::size_of;
use std::rc::Rc;

// Timer tokens.
const T_DISC: u64 = 1;
const T_DIAL: u64 = 2;
const T_TX: u64 = 3;
const T_SAMPLE: u64 = 4;
const T_POLL: u64 = 5;
const T_ROTATE: u64 = 6;

/// Geth's `maxActiveDialTasks`.
const MAX_ACTIVE_DIALS: usize = 16;
/// Geth's `lookupInterval` (4s).
const LOOKUP_INTERVAL_MS: u64 = 4_000;
/// Idle back-off ceiling for discovery. A node whose lookups stop
/// producing new candidates slows to this cadence — which is what makes a
/// normal Geth average ~180 discovery attempts/hour (§5.2) instead of the
/// naive 900.
const LOOKUP_BACKOFF_MAX_MS: u64 = 60_000;
/// Dial scheduler cadence.
const DIAL_TICK_MS: u64 = 1_000;
/// Peer-count sampling cadence for instrumented nodes.
const SAMPLE_INTERVAL_MS: u64 = 60_000;
/// discv4 poll cadence while protocol state is pending.
const POLL_TICK_MS: u64 = 600;
/// Minimum pause between rounds of re-dialing known table nodes. Without
/// pacing, a node below its peer cap would hammer unreachable targets
/// every dial tick.
const RETRY_REFILL_MS: u64 = 20_000;

/// Fingerprint of a node ID for the `known` dedup set. Node IDs are
/// secp256k1 public keys, so the leading 8 bytes are effectively uniform:
/// at a million distinct IDs the collision odds are ~2⁻²⁵, and a collision
/// merely suppresses one redial candidate. Storing 8 bytes instead of 64
/// cuts the largest per-host set by 8× at crawl scale.
fn node_fp(id: &NodeId) -> u64 {
    u64::from_be_bytes(id.0[..8].try_into().unwrap())
}

/// What a node keeps across runs: its profile, the shared bootstrap list,
/// the nodes it has learned of, the discovery and retry pacing, and its
/// counters.
#[derive(Debug)]
struct Kept {
    profile: NodeProfile,
    /// Shared flyweight: every node in a world points at the same
    /// bootstrap allocation (the list is immutable after `World::build`).
    bootstrap: Rc<[NodeRecord]>,
    known: BTreeSet<u64>,
    /// Consecutive discovery rounds that yielded nothing new.
    dry_lookups: u32,
    /// Earliest time the next table-retry refill may run.
    next_retry_ms: u64,
    /// Record peer-count samples (case-study instrumentation only).
    sample_peers: bool,
    /// Allocated on the first count.
    stats: Option<Box<NodeStats>>,
}

impl Kept {
    fn stats(&mut self) -> &mut NodeStats {
        self.stats.get_or_insert_with(Box::default)
    }

    /// A discovery engine for the current identity, which it counts, and
    /// its PINGs to every bootstrap node but itself.
    fn start_disc(&mut self, ctx: &Ctx) -> (Discv4, Vec<Outgoing>) {
        let id = self.profile.node_id();
        self.stats().identities.push(id);
        let addr = ctx.local_addr();
        let endpoint = Endpoint::new(addr.ip, addr.port);
        let mut disc = Discv4::new(self.profile.key, endpoint, self.profile.disc_config());
        let outgoing = self
            .bootstrap
            .iter()
            .filter(|b| b.id != id)
            .map(|b| disc.ping(*b, ctx.now_ms))
            .collect();
        (disc, outgoing)
    }
}

/// What a node holds while it runs and [`Host::on_stop`] drops: the
/// discovery engine and the peers and dials that hang off it.
#[derive(Debug)]
struct Running {
    disc: Discv4,
    conns: BTreeMap<ConnId, PeerConn>,
    /// Count of `conns` entries whose `is_active()` is true, maintained
    /// incrementally by [`Running::with_conn_mut`] / [`Running::drop_conn`].
    /// `at_capacity` runs on every datagram (via `arm_disc`), and bootstrap
    /// nodes accumulate population-sized `conns` maps — a scan there is the
    /// dominant join-storm cost at 50k hosts.
    active_conns: usize,
    /// Conns that have completed the eth STATUS check (true peers).
    eth_ready: BTreeSet<ConnId>,
    candidates: VecDeque<NodeRecord>,
    dialing: usize,
    /// Armed-timer flags (event-budget discipline).
    disc_armed: bool,
    dial_armed: bool,
    poll_armed: bool,
}

impl Running {
    fn new(disc: Discv4) -> Running {
        Running {
            disc,
            conns: BTreeMap::new(),
            active_conns: 0,
            eth_ready: BTreeSet::new(),
            candidates: VecDeque::new(),
            dialing: 0,
            disc_armed: false,
            dial_armed: false,
            poll_armed: false,
        }
    }

    // `at_capacity` runs per datagram via arm_disc; the count is
    // maintained incrementally, never by scanning `conns`
    fn active_peers(&self) -> usize {
        debug_assert_eq!(
            self.active_conns,
            self.conns.values().filter(|c| c.is_active()).count(),
            "active_conns counter out of sync with conns map"
        );
        self.active_conns
    }

    fn at_capacity(&self, kept: &Kept) -> bool {
        self.active_peers() >= kept.profile.max_peers
    }

    /// Run `f` on the connection's [`PeerConn`], keeping `active_conns` in
    /// sync across any stage transition `f` causes. Every mutable access
    /// to an entry of `conns` must go through here (or `drop_conn`).
    fn with_conn_mut<R>(&mut self, conn: ConnId, f: impl FnOnce(&mut PeerConn) -> R) -> Option<R> {
        let pc = self.conns.get_mut(&conn)?;
        let was_active = pc.is_active();
        let r = f(pc);
        self.active_conns =
            self.active_conns + usize::from(pc.is_active()) - usize::from(was_active);
        Some(r)
    }

    // ---- discovery ----------------------------------------------------

    fn send_disc(&mut self, ctx: &mut Ctx, outgoing: Vec<Outgoing>) {
        for o in outgoing {
            ctx.send_udp(HostAddr::new(o.to.ip, o.to.udp_port), o.datagram);
        }
        self.arm_poll(ctx);
    }

    fn arm_poll(&mut self, ctx: &mut Ctx) {
        if !self.poll_armed && self.disc.has_pending() {
            self.poll_armed = true;
            ctx.set_timer(POLL_TICK_MS, T_POLL);
        }
    }

    fn arm_disc(&mut self, kept: &Kept, ctx: &mut Ctx) {
        if !self.disc_armed && !self.at_capacity(kept) {
            self.disc_armed = true;
            let backoff = LOOKUP_INTERVAL_MS << kept.dry_lookups.min(4);
            ctx.set_timer(backoff.min(LOOKUP_BACKOFF_MAX_MS), T_DISC);
        }
    }

    fn arm_dial(&mut self, kept: &Kept, ctx: &mut Ctx) {
        if self.dial_armed {
            return;
        }
        if !self.candidates.is_empty() {
            self.dial_armed = true;
            ctx.set_timer(DIAL_TICK_MS, T_DIAL);
        } else if !self.at_capacity(kept) && !self.disc.table().is_empty() {
            // Only retry work remains: wake at the paced refill time.
            self.dial_armed = true;
            let delay = kept
                .next_retry_ms
                .saturating_sub(ctx.now_ms)
                .max(DIAL_TICK_MS);
            ctx.set_timer(delay, T_DIAL);
        }
    }

    fn drain_disc_events(&mut self, kept: &mut Kept, ctx: &mut Ctx) {
        let own_id = kept.profile.node_id();
        for event in self.disc.take_events() {
            let record = match event {
                DiscEvent::NodeSeen(r) | DiscEvent::NodeVerified(r) => r,
                DiscEvent::LookupDone { .. } => continue,
            };
            if record.id != own_id
                && record.endpoint.tcp_port != 0
                && kept.known.insert(node_fp(&record.id))
            {
                self.candidates.push_back(record);
                kept.dry_lookups = 0;
            }
        }
        self.arm_dial(kept, ctx);
    }

    // ---- dialing ------------------------------------------------------

    fn dial_some(&mut self, kept: &mut Kept, ctx: &mut Ctx) {
        // Fresh discoveries first; once the queue is dry, retry known table
        // residents we aren't connected to (Geth keeps redialing table
        // nodes — without this no client ever fills its peer cap, because
        // first-attempt dials often land on full peers).
        if self.candidates.is_empty() && !self.at_capacity(kept) && ctx.now_ms >= kept.next_retry_ms
        {
            kept.next_retry_ms = ctx.now_ms + RETRY_REFILL_MS;
            let connected: BTreeSet<NodeId> =
                self.conns.values().filter_map(|c| c.peer_id).collect();
            let table = self.disc.table().entries().map(|e| e.record);
            let retry: Vec<NodeRecord> = table
                .filter(|r| !connected.contains(&r.id))
                .take(8)
                .collect();
            self.candidates.extend(retry);
        }
        let mut dials = 0;
        while self.dialing < MAX_ACTIVE_DIALS
            && self.active_peers() + self.dialing < kept.profile.max_peers
        {
            let Some(candidate) = self.candidates.pop_front() else {
                break;
            };
            if self.conns.values().any(|c| c.peer_id == Some(candidate.id)) {
                continue;
            }
            // Never dial our own address: after an identity rotation our
            // old node ID may come back to us through discovery.
            let to = HostAddr::new(candidate.endpoint.ip, candidate.endpoint.tcp_port);
            let local = ctx.local_addr();
            if to == local {
                continue;
            }
            let conn = ctx.tcp_connect(to);
            let hello = kept.profile.hello(local.port);
            let pc = PeerConn::dialing(conn, candidate.id, hello, ctx.now_ms);
            self.conns.insert(conn, pc);
            self.dialing += 1;
            dials += 1;
        }
        if dials > 0 {
            kept.stats().dials += dials;
        }
    }

    // ---- session policy -----------------------------------------------

    fn send_eth(&mut self, kept: &mut Kept, ctx: &mut Ctx, conn: ConnId, msg: &EthMessage) {
        if let Some(frames) = self.with_conn_mut(conn, |pc| pc.send_eth(msg)) {
            if !frames.is_empty() {
                kept.stats().count_sent(eth_label(msg));
            }
            for f in frames {
                ctx.tcp_send(conn, f);
            }
        }
    }

    fn disconnect(&mut self, kept: &mut Kept, ctx: &mut Ctx, conn: ConnId, why: DisconnectReason) {
        if let Some(frames) = self.with_conn_mut(conn, |pc| pc.send_disconnect(why)) {
            if !frames.is_empty() {
                let stats = kept.stats();
                stats.count_sent("DISCONNECT");
                *stats.disconnects_sent.entry(why.label()).or_insert(0) += 1;
            }
            for f in frames {
                ctx.tcp_send(conn, f);
            }
            ctx.tcp_close(conn);
        }
        self.drop_conn(kept, ctx, conn);
    }

    fn close(&mut self, kept: &Kept, ctx: &mut Ctx, conn: ConnId) {
        ctx.tcp_close(conn);
        self.drop_conn(kept, ctx, conn);
    }

    fn close_if_dead(&mut self, kept: &Kept, ctx: &mut Ctx, conn: ConnId) {
        if self.conns.get(&conn).is_some_and(PeerConn::is_dead) {
            self.close(kept, ctx, conn);
        }
    }

    fn drop_conn(&mut self, kept: &Kept, ctx: &mut Ctx, conn: ConnId) {
        if let Some(pc) = self.conns.remove(&conn) {
            if pc.is_active() {
                self.active_conns -= 1;
            }
        }
        self.eth_ready.remove(&conn);
        // A slot may have freed: resume discovery/dialing.
        self.arm_disc(kept, ctx);
        self.arm_dial(kept, ctx);
    }

    fn on_wire_event(&mut self, kept: &mut Kept, ctx: &mut Ctx, conn: ConnId, event: WireEvent) {
        match event {
            WireEvent::RlpxEstablished { .. } => {
                kept.stats().count_sent("HELLO"); // our HELLO was queued
            }
            WireEvent::Hello { hello, shared } => {
                kept.stats().count_received("HELLO");
                kept.known.insert(node_fp(&hello.node_id));
                // Policy 1: peer cap (counts the new conn itself).
                if self.active_peers() > kept.profile.max_peers {
                    self.disconnect(kept, ctx, conn, DisconnectReason::TooManyPeers);
                    return;
                }
                // Policy 2: no shared capability → useless.
                if shared.is_empty() {
                    self.disconnect(kept, ctx, conn, DisconnectReason::UselessPeer);
                    return;
                }
                // Policy 3: eth negotiation → STATUS goes first.
                if shared.iter().any(|c| c.name == "eth") {
                    match kept.profile.status() {
                        Some(st) => self.send_eth(kept, ctx, conn, &EthMessage::Status(st)),
                        // Light/other node that advertised eth-compatible
                        // caps it can't serve: drop as useless. Light
                        // nodes simply never send STATUS (§5.3).
                        None if matches!(kept.profile.service, ServiceKind::OtherService) => {
                            self.disconnect(kept, ctx, conn, DisconnectReason::UselessPeer);
                        }
                        None => {}
                    }
                }
            }
            WireEvent::Eth(msg) => {
                kept.stats().count_received(eth_label(&msg));
                self.on_eth(kept, ctx, conn, msg);
            }
            WireEvent::OtherSubprotocol { .. } => {
                kept.stats().count_received("OTHER_SUBPROTOCOL");
            }
            WireEvent::Ping => {
                let stats = kept.stats();
                stats.count_received("PING");
                stats.count_sent("PONG");
                if let Some(frames) = self.with_conn_mut(conn, |pc| pc.flush_session()) {
                    for f in frames {
                        ctx.tcp_send(conn, f);
                    }
                }
            }
            WireEvent::Pong => kept.stats().count_received("PONG"),
            WireEvent::Disconnected(reason) => {
                let stats = kept.stats();
                stats.count_received("DISCONNECT");
                *stats
                    .disconnects_received
                    .entry(reason.label())
                    .or_insert(0) += 1;
                self.close(kept, ctx, conn);
            }
            WireEvent::ProtocolError(_) => self.close(kept, ctx, conn),
        }
    }

    fn on_eth(&mut self, kept: &mut Kept, ctx: &mut Ctx, conn: ConnId, msg: EthMessage) {
        let reply = match msg {
            EthMessage::Status(theirs) => {
                let Some(ours) = kept.profile.status() else {
                    // We don't run eth (light node received a status?) —
                    // tolerate silently.
                    return;
                };
                if ours.compatible(&theirs) {
                    self.eth_ready.insert(conn);
                    return;
                }
                // Chain mismatch: client-specific disconnect behaviour
                // (§3 observation 4 / Table 1).
                let reason = match kept.profile.kind {
                    // Parity implements nothing above 0x0b, so mismatches
                    // surface as UselessPeer.
                    ClientKind::Parity => DisconnectReason::UselessPeer,
                    // Geth distinguishes: wrong genesis/network is a
                    // subprotocol-level error.
                    _ => DisconnectReason::SubprotocolError,
                };
                self.disconnect(kept, ctx, conn, reason);
                return;
            }
            EthMessage::GetBlockHeaders {
                start,
                max_headers,
                skip,
                reverse,
            } => {
                let ServiceKind::Eth { chain } = &kept.profile.service else {
                    return;
                };
                let start_num = match start {
                    BlockId::Number(n) => Some(n),
                    // Hash lookups supported for the head only (enough
                    // for sync-start probes).
                    BlockId::Hash(h) if h == chain.best_hash() => Some(chain.head),
                    BlockId::Hash(_) => None,
                };
                EthMessage::BlockHeaders(match start_num {
                    Some(n) => chain.headers(n, max_headers as usize, skip, reverse),
                    None => Vec::new(),
                })
            }
            EthMessage::GetBlockBodies(hashes) => {
                EthMessage::BlockBodies(vec![vec![0u8; 64]; hashes.len().min(16)])
            }
            EthMessage::GetReceipts(hashes) => {
                EthMessage::Receipts(vec![vec![0u8; 32]; hashes.len().min(16)])
            }
            EthMessage::GetNodeData(hashes) => {
                EthMessage::NodeData(vec![vec![0u8; 32]; hashes.len().min(16)])
            }
            // Gossip is consumed (counted by the caller) but not re-flooded
            // — echo suppression stands in for real dedup logic.
            EthMessage::Transactions(_)
            | EthMessage::NewBlockHashes(_)
            | EthMessage::NewBlock { .. }
            | EthMessage::BlockHeaders(_)
            | EthMessage::BlockBodies(_)
            | EthMessage::NodeData(_)
            | EthMessage::Receipts(_) => return,
        };
        self.send_eth(kept, ctx, conn, &reply);
    }

    fn gossip_transactions(&mut self, kept: &mut Kept, ctx: &mut Ctx) {
        if kept.profile.tx_interval_ms == 0 {
            return;
        }
        let ready: Vec<ConnId> = self
            .eth_ready
            .iter()
            .copied()
            .filter(|c| self.conns.get(c).is_some_and(PeerConn::is_active))
            .collect();
        if ready.is_empty() {
            return;
        }
        let fanout = kept.profile.tx_fanout(ready.len()).min(ready.len());
        let n_txs = ctx.rng().gen_range(1..=3);
        let txs: Vec<Vec<u8>> = (0..n_txs)
            .map(|_| {
                let mut tx = vec![0u8; 120];
                ctx.rng().fill(&mut tx[..]);
                tx
            })
            .collect();
        let start = ctx.rng().gen_range(0..ready.len());
        let msg = EthMessage::Transactions(txs);
        for i in 0..fanout {
            let conn = ready[(start + i) % ready.len()];
            self.send_eth(kept, ctx, conn, &msg);
        }
    }

    fn rotate_identity(&mut self, kept: &mut Kept, ctx: &mut Ctx) {
        // Mint a fresh key: the spammer's defining behaviour.
        kept.profile.key = SecretKey::random(ctx.rng());
        // Re-announce to bootstraps under the new identity.
        let (disc, outgoing) = kept.start_disc(ctx);
        self.disc = disc;
        // Old connections die with the old identity.
        let conns: Vec<ConnId> = self.conns.keys().copied().collect();
        for c in conns {
            self.close(kept, ctx, c);
        }
        self.send_disc(ctx, outgoing);
    }

    // ---- the running half of each `Host` callback -----------------------

    fn on_udp(&mut self, kept: &mut Kept, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        let from = Endpoint::new(from.ip, from.port);
        let outgoing = self.disc.on_datagram(from, datagram, ctx.now_ms);
        self.send_disc(ctx, outgoing);
        self.drain_disc_events(kept, ctx);
    }

    fn on_tcp(&mut self, kept: &mut Kept, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn, .. } => {
                self.dialing = self.dialing.saturating_sub(1);
                let key = &kept.profile.key;
                let frames = self
                    .with_conn_mut(conn, |pc| pc.on_tcp_connected(ctx.rng(), key))
                    .unwrap_or_default();
                for f in frames {
                    ctx.tcp_send(conn, f);
                }
                self.close_if_dead(kept, ctx, conn);
            }
            TcpEvent::ConnectFailed { conn } => {
                self.dialing = self.dialing.saturating_sub(1);
                self.drop_conn(kept, ctx, conn);
            }
            TcpEvent::Incoming { conn, .. } => {
                if self.conns.contains_key(&conn) {
                    // Self-connection (we dialed our own address): refuse.
                    self.close(kept, ctx, conn);
                    return;
                }
                let hello = kept.profile.hello(ctx.local_addr().port);
                self.conns
                    .insert(conn, PeerConn::accepted(conn, hello, ctx.now_ms));
            }
            TcpEvent::Data { conn, bytes } => {
                let key = &kept.profile.key;
                let Some((events, out)) =
                    self.with_conn_mut(conn, |pc| pc.on_data(ctx.rng(), key, &bytes))
                else {
                    return;
                };
                for f in out {
                    ctx.tcp_send(conn, f);
                }
                for e in events {
                    self.on_wire_event(kept, ctx, conn, e);
                }
                self.close_if_dead(kept, ctx, conn);
            }
            TcpEvent::Closed { conn } => self.drop_conn(kept, ctx, conn),
        }
    }

    fn on_timer(&mut self, kept: &mut Kept, ctx: &mut Ctx, token: u64) {
        match token {
            T_DISC => {
                self.disc_armed = false;
                if self.at_capacity(kept) {
                    return; // re-armed when a slot frees
                }
                let mut outgoing = self.disc.poll(ctx.now_ms);
                if !self.disc.lookup_in_progress() {
                    let mut target = [0u8; 64];
                    ctx.rng().fill(&mut target[..]);
                    outgoing.extend(self.disc.start_lookup(NodeId(target), ctx.now_ms));
                    kept.stats().lookups += 1;
                    kept.dry_lookups = kept.dry_lookups.saturating_add(1);
                }
                self.send_disc(ctx, outgoing);
                self.drain_disc_events(kept, ctx);
                self.arm_disc(kept, ctx);
            }
            T_DIAL => {
                self.dial_armed = false;
                self.dial_some(kept, ctx);
                self.arm_dial(kept, ctx);
            }
            T_TX => {
                self.gossip_transactions(kept, ctx);
                ctx.set_timer(kept.profile.tx_interval_ms, T_TX);
            }
            T_SAMPLE => {
                let peers = self.active_peers();
                kept.stats().peer_samples.push((ctx.now_ms, peers));
                ctx.set_timer(SAMPLE_INTERVAL_MS, T_SAMPLE);
            }
            T_POLL => {
                self.poll_armed = false;
                let outgoing = self.disc.poll(ctx.now_ms);
                self.send_disc(ctx, outgoing);
                self.drain_disc_events(kept, ctx);
                self.arm_poll(ctx);
            }
            T_ROTATE => {
                self.rotate_identity(kept, ctx);
                if let Some(rot) = kept.profile.identity_rotation_ms {
                    ctx.set_timer(rot, T_ROTATE);
                }
            }
            _ => {}
        }
    }
}

/// A population node.
///
/// Most hosts of a paper-scale world are not running at any moment, so
/// the node keeps inline only what outlives a run; what `on_stop` clears
/// lives in one box that exists exactly while the node runs, and the
/// counters arrive with the first count.
#[derive(Debug)]
pub struct EthNode {
    kept: Kept,
    running: Option<Box<Running>>,
}

impl EthNode {
    /// Build a node from its profile and bootstrap list. Accepts either an
    /// owned `Vec<NodeRecord>` or a pre-shared `Rc<[NodeRecord]>`; worlds
    /// build the `Rc` once and hand every node the same allocation.
    pub fn new(profile: NodeProfile, bootstrap: impl Into<Rc<[NodeRecord]>>) -> EthNode {
        EthNode {
            kept: Kept {
                profile,
                bootstrap: bootstrap.into(),
                known: BTreeSet::new(),
                dry_lookups: 0,
                next_retry_ms: 0,
                sample_peers: false,
                stats: None,
            },
            running: None,
        }
    }

    /// The same node, recording its active peer count every minute it
    /// runs (case-study instrumentation, read from
    /// [`NodeStats::peer_samples`]).
    pub fn sampling_peers(mut self) -> EthNode {
        self.kept.sample_peers = true;
        self
    }

    /// Its counters; all empty until the node first counts something.
    pub fn stats(&self) -> &NodeStats {
        self.kept.stats.as_deref().unwrap_or(&NO_STATS)
    }

    /// The node's current identity.
    pub fn node_id(&self) -> NodeId {
        self.kept.profile.node_id()
    }

    /// Its profile.
    pub fn profile(&self) -> &NodeProfile {
        &self.kept.profile
    }

    /// Distinct nodes this node has learned about (discovery coverage —
    /// the eclipse experiment watches this stall).
    pub fn known_count(&self) -> usize {
        self.kept.known.len()
    }

    /// Current routing-table occupancy.
    pub fn table_size(&self) -> usize {
        self.running
            .as_deref()
            .map_or(0, |run| run.disc.table().len())
    }

    /// Deterministic estimate of this node's heap footprint in bytes.
    ///
    /// Used by the flyweight regression tests as an RSS proxy: unlike real
    /// RSS it is allocator-independent and replay-stable. Shared (`Rc`)
    /// state is amortized over its reference count, so the estimate sums
    /// to roughly the true total across a whole world. Container entries
    /// are charged `size_of` plus a fixed 16-byte node-overhead constant,
    /// a connection also its boxed parts and its receive buffer's
    /// capacity; the discovery engine its routing-table entries and
    /// `Discv4::heap_bytes` (bonds, pending requests, the lookup). The
    /// running state and the counters are charged with their boxes.
    pub fn approx_heap_bytes(&self) -> usize {
        const NODE_OVERHEAD: usize = 16;
        let shared = |len_bytes: usize, strong: usize| len_bytes / strong.max(1);
        let kept = &self.kept;
        let mut total = size_of::<EthNode>();
        total += shared(
            kept.bootstrap.len() * size_of::<NodeRecord>(),
            Rc::strong_count(&kept.bootstrap),
        );
        total += shared(
            kept.profile.capabilities.len() * size_of::<devp2p::Capability>(),
            Rc::strong_count(&kept.profile.capabilities),
        );
        total += kept.profile.client_id.len();
        total += kept.known.len() * (size_of::<u64>() + NODE_OVERHEAD);
        if let Some(run) = self.running.as_deref() {
            total += size_of::<Running>();
            total += run
                .conns
                .values()
                .map(|pc| size_of::<(ConnId, PeerConn)>() + NODE_OVERHEAD + pc.heap_bytes())
                .sum::<usize>();
            total += run.eth_ready.len() * (size_of::<ConnId>() + NODE_OVERHEAD);
            total += run.candidates.capacity() * size_of::<NodeRecord>();
            total += run.disc.table().len() * (size_of::<NodeRecord>() + NODE_OVERHEAD);
            total += run.disc.heap_bytes();
        }
        if let Some(stats) = kept.stats.as_deref() {
            total += size_of::<NodeStats>();
            total += stats.peer_samples.capacity() * size_of::<(u64, usize)>();
            total += stats.identities.capacity() * size_of::<NodeId>();
            total += (stats.sent.len()
                + stats.received.len()
                + stats.disconnects_sent.len()
                + stats.disconnects_received.len())
                * (size_of::<(&'static str, u64)>() + NODE_OVERHEAD);
        }
        total
    }
}

impl Host for EthNode {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        let kept = &mut self.kept;
        // Version upgrades land on restart (churn drives Fig 10).
        if let Some(plan) = kept.profile.release_plan {
            kept.profile.client_id = plan.client_id_at(ctx.now_ms);
        }
        let (disc, outgoing) = kept.start_disc(ctx);
        let run = self.running.insert(Box::new(Running::new(disc)));
        run.send_disc(ctx, outgoing);
        run.arm_disc(kept, ctx);
        if kept.profile.tx_interval_ms > 0 {
            ctx.set_timer(kept.profile.tx_interval_ms, T_TX);
        }
        if kept.sample_peers {
            ctx.set_timer(SAMPLE_INTERVAL_MS, T_SAMPLE);
        }
        if let Some(rot) = kept.profile.identity_rotation_ms {
            ctx.set_timer(rot, T_ROTATE);
        }
    }

    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        if let Some(run) = self.running.as_deref_mut() {
            run.on_udp(&mut self.kept, ctx, from, datagram);
        }
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        if let Some(run) = self.running.as_deref_mut() {
            run.on_tcp(&mut self.kept, ctx, event);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if let Some(run) = self.running.as_deref_mut() {
            run.on_timer(&mut self.kept, ctx, token);
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.encode_state(w);
        Ok(())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.apply_state(bytes)
    }

    fn on_stop(&mut self, _ctx: &mut Ctx) {
        self.running = None;
    }
}
