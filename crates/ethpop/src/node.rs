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

use crate::clients::{ClientKind, NodeProfile, ServiceKind};
use crate::wire::{PeerConn, WireEvent};
use devp2p::{DisconnectReason, Hello, P2P_VERSION};
use discv4::{Config as DiscConfig, Discv4, Event as DiscEvent};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use ethwire::{BlockId, EthMessage, Status};
use netsim::{ConnId, Ctx, Host, HostAddr, Snap, SnapError, SnapReader, SnapWriter, TcpEvent};
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

/// Magic prefixing an [`EthNode`] behaviour-state section.
const NODE_SNAP_MAGIC: [u8; 4] = *b"ETHN";
/// Current behaviour-state format version.
const NODE_SNAP_VERSION: u8 = 1;

/// Instrumentation counters — Figures 2, 3, 4 and Table 1 read these.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Messages sent, keyed by wire-message label.
    pub sent: BTreeMap<&'static str, u64>,
    /// Messages received, keyed by label.
    pub received: BTreeMap<&'static str, u64>,
    /// DISCONNECT reasons sent.
    pub disconnects_sent: BTreeMap<&'static str, u64>,
    /// DISCONNECT reasons received.
    pub disconnects_received: BTreeMap<&'static str, u64>,
    /// (time ms, active peer count) samples.
    pub peer_samples: Vec<(u64, usize)>,
    /// Every identity this node has used (spammers accumulate many).
    pub identities: Vec<NodeId>,
    /// Discovery lookups started.
    pub lookups: u64,
    /// Outbound dial attempts.
    pub dials: u64,
}

/// Image: the four label maps as `(label string, count)` lists, then the
/// remaining fields in declaration order.
impl Snap for NodeStats {
    fn snap(&self, w: &mut SnapWriter) {
        for m in [
            &self.sent,
            &self.received,
            &self.disconnects_sent,
            &self.disconnects_received,
        ] {
            w.usize(m.len());
            for (label, v) in m {
                w.str(label);
                w.u64(*v);
            }
        }
        self.peer_samples.snap(w);
        self.identities.snap(w);
        self.lookups.snap(w);
        self.dials.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<NodeStats, SnapError> {
        let mut labels = || -> Result<BTreeMap<&'static str, u64>, SnapError> {
            let mut m = BTreeMap::new();
            for _ in 0..r.usize()? {
                m.insert(intern_label(r.str()?), r.u64()?);
            }
            Ok(m)
        };
        Ok(NodeStats {
            sent: labels()?,
            received: labels()?,
            disconnects_sent: labels()?,
            disconnects_received: labels()?,
            peer_samples: Snap::unsnap(r)?,
            identities: Snap::unsnap(r)?,
            lookups: Snap::unsnap(r)?,
            dials: Snap::unsnap(r)?,
        })
    }
}

/// The finite label vocabulary `NodeStats` maps use. Restore looks
/// decoded strings up here so the maps keep `&'static str` keys; unknown
/// labels (a future label added without extending this table) fall back
/// to a leaked allocation, bounded by the number of distinct labels.
const KNOWN_LABELS: [&str; 17] = [
    "STATUS",
    "NEW_BLOCK_HASHES",
    "TRANSACTIONS",
    "GET_BLOCK_HEADERS",
    "BLOCK_HEADERS",
    "GET_BLOCK_BODIES",
    "BLOCK_BODIES",
    "NEW_BLOCK",
    "GET_NODE_DATA",
    "NODE_DATA",
    "GET_RECEIPTS",
    "RECEIPTS",
    "HELLO",
    "PING",
    "PONG",
    "DISCONNECT",
    "OTHER_SUBPROTOCOL",
];

fn intern_label(s: &str) -> &'static str {
    if let Some(l) = KNOWN_LABELS.iter().find(|l| **l == s) {
        return l;
    }
    if let Some(reason) = DisconnectReason::ALL.iter().find(|r| r.label() == s) {
        return reason.label();
    }
    Box::leak(s.to_string().into_boxed_str())
}

impl NodeStats {
    fn count_sent(&mut self, label: &'static str) {
        *self.sent.entry(label).or_insert(0) += 1;
    }
    fn count_received(&mut self, label: &'static str) {
        *self.received.entry(label).or_insert(0) += 1;
    }
}

/// Label an eth message for the Fig 2/3 tallies.
pub fn eth_label(msg: &EthMessage) -> &'static str {
    match msg {
        EthMessage::Status(_) => "STATUS",
        EthMessage::NewBlockHashes(_) => "NEW_BLOCK_HASHES",
        EthMessage::Transactions(_) => "TRANSACTIONS",
        EthMessage::GetBlockHeaders { .. } => "GET_BLOCK_HEADERS",
        EthMessage::BlockHeaders(_) => "BLOCK_HEADERS",
        EthMessage::GetBlockBodies(_) => "GET_BLOCK_BODIES",
        EthMessage::BlockBodies(_) => "BLOCK_BODIES",
        EthMessage::NewBlock { .. } => "NEW_BLOCK",
        EthMessage::GetNodeData(_) => "GET_NODE_DATA",
        EthMessage::NodeData(_) => "NODE_DATA",
        EthMessage::GetReceipts(_) => "GET_RECEIPTS",
        EthMessage::Receipts(_) => "RECEIPTS",
    }
}

/// Fingerprint of a node ID for the `known` dedup set. Node IDs are
/// secp256k1 public keys, so the leading 8 bytes are effectively uniform:
/// at a million distinct IDs the collision odds are ~2⁻²⁵, and a collision
/// merely suppresses one redial candidate. Storing 8 bytes instead of 64
/// cuts the largest per-host set by 8× at crawl scale.
fn node_fp(id: &NodeId) -> u64 {
    u64::from_be_bytes(id.0[..8].try_into().unwrap())
}

/// A population node.
#[derive(Debug)]
pub struct EthNode {
    profile: NodeProfile,
    /// Shared flyweight: every node in a world points at the same
    /// bootstrap allocation (the list is immutable after `World::build`).
    bootstrap: Rc<[NodeRecord]>,
    disc: Option<Discv4>,
    conns: BTreeMap<ConnId, PeerConn>,
    /// Count of `conns` entries whose `is_active()` is true, maintained
    /// incrementally by [`EthNode::with_conn_mut`] / [`EthNode::drop_conn`].
    /// `at_capacity` runs on every datagram (via `arm_disc`), and bootstrap
    /// nodes accumulate population-sized `conns` maps — a scan there is the
    /// dominant join-storm cost at 50k hosts.
    active_conns: usize,
    /// Conns that have completed the eth STATUS check (true peers).
    eth_ready: BTreeSet<ConnId>,
    candidates: VecDeque<NodeRecord>,
    known: BTreeSet<u64>,
    dialing: usize,
    /// Armed-timer flags (event-budget discipline).
    disc_armed: bool,
    dial_armed: bool,
    poll_armed: bool,
    /// Consecutive discovery rounds that yielded nothing new.
    dry_lookups: u32,
    /// Earliest time the next table-retry refill may run.
    next_retry_ms: u64,
    /// Record peer-count samples (case-study instrumentation only).
    pub sample_peers: bool,
    /// Counters.
    pub stats: NodeStats,
}

impl EthNode {
    /// Build a node from its profile and bootstrap list. Accepts either an
    /// owned `Vec<NodeRecord>` or a pre-shared `Rc<[NodeRecord]>`; worlds
    /// build the `Rc` once and hand every node the same allocation.
    pub fn new(profile: NodeProfile, bootstrap: impl Into<Rc<[NodeRecord]>>) -> EthNode {
        EthNode {
            profile,
            bootstrap: bootstrap.into(),
            disc: None,
            conns: BTreeMap::new(),
            active_conns: 0,
            eth_ready: BTreeSet::new(),
            candidates: VecDeque::new(),
            known: BTreeSet::new(),
            dialing: 0,
            disc_armed: false,
            dial_armed: false,
            poll_armed: false,
            dry_lookups: 0,
            next_retry_ms: 0,
            sample_peers: false,
            stats: NodeStats::default(),
        }
    }

    /// The node's current identity.
    pub fn node_id(&self) -> NodeId {
        self.profile.node_id()
    }

    /// Its profile.
    pub fn profile(&self) -> &NodeProfile {
        &self.profile
    }

    /// Distinct nodes this node has learned about (discovery coverage —
    /// the eclipse experiment watches this stall).
    pub fn known_count(&self) -> usize {
        self.known.len()
    }

    /// Current routing-table occupancy.
    pub fn table_size(&self) -> usize {
        self.disc.as_ref().map(|d| d.table().len()).unwrap_or(0)
    }

    /// Deterministic estimate of this node's heap footprint in bytes.
    ///
    /// Used by the flyweight regression tests as an RSS proxy: unlike real
    /// RSS it is allocator-independent and replay-stable. Shared (`Rc`)
    /// state is amortized over its reference count, so the estimate sums
    /// to roughly the true total across a whole world. Container entries
    /// are charged `size_of` plus a fixed 16-byte node-overhead constant;
    /// discv4 table internals are charged per entry.
    pub fn approx_heap_bytes(&self) -> usize {
        const NODE_OVERHEAD: usize = 16;
        let shared = |len_bytes: usize, strong: usize| len_bytes / strong.max(1);
        let mut total = size_of::<EthNode>();
        total += shared(
            self.bootstrap.len() * size_of::<NodeRecord>(),
            Rc::strong_count(&self.bootstrap),
        );
        total += shared(
            self.profile.capabilities.len() * size_of::<devp2p::Capability>(),
            Rc::strong_count(&self.profile.capabilities),
        );
        total += self.profile.client_id.len();
        total += self
            .conns
            .len()
            .saturating_mul(size_of::<(ConnId, PeerConn)>() + NODE_OVERHEAD);
        total += self
            .eth_ready
            .len()
            .saturating_mul(size_of::<ConnId>() + NODE_OVERHEAD);
        total += self
            .known
            .len()
            .saturating_mul(size_of::<u64>() + NODE_OVERHEAD);
        total += self.candidates.capacity() * size_of::<NodeRecord>();
        total += self.table_size() * (size_of::<NodeRecord>() + NODE_OVERHEAD);
        total += self.stats.peer_samples.capacity() * size_of::<(u64, usize)>();
        total += self.stats.identities.capacity() * size_of::<NodeId>();
        total += (self.stats.sent.len()
            + self.stats.received.len()
            + self.stats.disconnects_sent.len()
            + self.stats.disconnects_received.len())
            * (size_of::<(&'static str, u64)>() + NODE_OVERHEAD);
        total
    }

    fn endpoint(addr: HostAddr) -> Endpoint {
        Endpoint {
            ip: addr.ip,
            udp_port: addr.port,
            tcp_port: addr.port,
        }
    }

    fn local_hello(&self, addr: HostAddr) -> Hello {
        Hello {
            p2p_version: P2P_VERSION,
            client_id: self.profile.client_id.clone(),
            capabilities: self.profile.capabilities.to_vec(),
            listen_port: addr.port,
            node_id: self.profile.node_id(),
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

    fn at_capacity(&self) -> bool {
        self.active_peers() >= self.profile.max_peers
    }

    /// Run `f` on the connection's [`PeerConn`], keeping `active_conns` in
    /// sync across any stage transition `f` causes. Every mutable access
    /// to an entry of `conns` must go through here (or `drop_conn`).
    fn with_conn_mut<R>(&mut self, conn: ConnId, f: impl FnOnce(&mut PeerConn) -> R) -> Option<R> {
        let pc = self.conns.get_mut(&conn)?;
        let was_active = pc.is_active();
        let r = f(pc);
        let is_active = pc.is_active();
        match (was_active, is_active) {
            (false, true) => self.active_conns += 1,
            (true, false) => self.active_conns -= 1,
            _ => {}
        }
        Some(r)
    }

    // ---- discovery ----------------------------------------------------

    fn send_disc(&mut self, ctx: &mut Ctx, outgoing: Vec<discv4::Outgoing>) {
        for o in outgoing {
            ctx.send_udp(HostAddr::new(o.to.ip, o.to.udp_port), o.datagram);
        }
        self.arm_poll(ctx);
    }

    fn arm_poll(&mut self, ctx: &mut Ctx) {
        if !self.poll_armed && self.disc.as_ref().map(|d| d.has_pending()).unwrap_or(false) {
            self.poll_armed = true;
            ctx.set_timer(POLL_TICK_MS, T_POLL);
        }
    }

    fn arm_disc(&mut self, ctx: &mut Ctx) {
        if !self.disc_armed && !self.at_capacity() {
            self.disc_armed = true;
            let backoff = LOOKUP_INTERVAL_MS << self.dry_lookups.min(4);
            ctx.set_timer(backoff.min(LOOKUP_BACKOFF_MAX_MS), T_DISC);
        }
    }

    fn arm_dial(&mut self, ctx: &mut Ctx) {
        if self.dial_armed {
            return;
        }
        if !self.candidates.is_empty() {
            self.dial_armed = true;
            ctx.set_timer(DIAL_TICK_MS, T_DIAL);
        } else if !self.at_capacity()
            && self
                .disc
                .as_ref()
                .map(|d| !d.table().is_empty())
                .unwrap_or(false)
        {
            // Only retry work remains: wake at the paced refill time.
            self.dial_armed = true;
            let delay = self
                .next_retry_ms
                .saturating_sub(ctx.now_ms)
                .max(DIAL_TICK_MS);
            ctx.set_timer(delay, T_DIAL);
        }
    }

    fn drain_disc_events(&mut self, ctx: &mut Ctx) {
        let Some(disc) = self.disc.as_mut() else {
            return;
        };
        let events = disc.take_events();
        let own_id = self.profile.node_id();
        for event in events {
            let record = match event {
                DiscEvent::NodeSeen(r) | DiscEvent::NodeVerified(r) => Some(r),
                DiscEvent::LookupDone { .. } => None,
            };
            if let Some(record) = record {
                if record.id != own_id
                    && record.endpoint.tcp_port != 0
                    && self.known.insert(node_fp(&record.id))
                {
                    self.candidates.push_back(record);
                    self.dry_lookups = 0;
                }
            }
        }
        self.arm_dial(ctx);
    }

    // ---- dialing ------------------------------------------------------

    fn dial_some(&mut self, ctx: &mut Ctx) {
        // Fresh discoveries first; once the queue is dry, retry known table
        // residents we aren't connected to (Geth keeps redialing table
        // nodes — without this no client ever fills its peer cap, because
        // first-attempt dials often land on full peers).
        if self.candidates.is_empty() && !self.at_capacity() && ctx.now_ms >= self.next_retry_ms {
            self.next_retry_ms = ctx.now_ms + RETRY_REFILL_MS;
            if let Some(disc) = self.disc.as_ref() {
                let connected: BTreeSet<NodeId> =
                    self.conns.values().filter_map(|c| c.peer_id).collect();
                let retry: Vec<NodeRecord> = disc
                    .table()
                    .entries()
                    .map(|e| e.record)
                    .filter(|r| !connected.contains(&r.id))
                    .take(8)
                    .collect();
                self.candidates.extend(retry);
            }
        }
        while self.dialing < MAX_ACTIVE_DIALS
            && self.active_peers() + self.dialing < self.profile.max_peers
        {
            let Some(candidate) = self.candidates.pop_front() else {
                break;
            };
            if self.conns.values().any(|c| c.peer_id == Some(candidate.id)) {
                continue;
            }
            // Never dial our own address: after an identity rotation our
            // old node ID may come back to us through discovery.
            let local = ctx.local_addr();
            if candidate.endpoint.ip == local.ip && candidate.endpoint.tcp_port == local.port {
                continue;
            }
            let conn = ctx.tcp_connect(HostAddr::new(
                candidate.endpoint.ip,
                candidate.endpoint.tcp_port,
            ));
            let hello = self.local_hello(ctx.local_addr());
            self.conns.insert(
                conn,
                PeerConn::dialing(conn, candidate.id, hello, ctx.now_ms),
            );
            self.dialing += 1;
            self.stats.dials += 1;
        }
    }

    // ---- session policy -----------------------------------------------

    fn count_eth_sent(&mut self, msg: &EthMessage) {
        self.stats.count_sent(eth_label(msg));
    }

    fn send_eth_on(&mut self, ctx: &mut Ctx, conn: ConnId, msg: &EthMessage) {
        if let Some(frames) = self.with_conn_mut(conn, |pc| pc.send_eth(msg)) {
            if !frames.is_empty() {
                self.count_eth_sent(msg);
            }
            for f in frames {
                ctx.tcp_send(conn, f);
            }
        }
    }

    fn disconnect_conn(&mut self, ctx: &mut Ctx, conn: ConnId, reason: DisconnectReason) {
        if let Some(frames) = self.with_conn_mut(conn, |pc| pc.send_disconnect(reason)) {
            if !frames.is_empty() {
                self.stats.count_sent("DISCONNECT");
                *self
                    .stats
                    .disconnects_sent
                    .entry(reason.label())
                    .or_insert(0) += 1;
            }
            for f in frames {
                ctx.tcp_send(conn, f);
            }
            ctx.tcp_close(conn);
        }
        self.drop_conn(ctx, conn);
    }

    fn drop_conn(&mut self, ctx: &mut Ctx, conn: ConnId) {
        if let Some(pc) = self.conns.remove(&conn) {
            if pc.is_active() {
                self.active_conns -= 1;
            }
        }
        self.eth_ready.remove(&conn);
        // A slot may have freed: resume discovery/dialing.
        self.arm_disc(ctx);
        self.arm_dial(ctx);
    }

    fn our_status(&self) -> Option<Status> {
        match &self.profile.service {
            ServiceKind::Eth { chain } => Some(Status {
                protocol_version: 63,
                network_id: chain.config.network_id,
                total_difficulty: chain.total_difficulty(),
                best_hash: chain.best_hash(),
                genesis_hash: chain.config.genesis_hash,
            }),
            _ => None,
        }
    }

    fn handle_wire_event(&mut self, ctx: &mut Ctx, conn: ConnId, event: WireEvent) {
        match event {
            WireEvent::RlpxEstablished { .. } => {
                self.stats.count_sent("HELLO"); // our HELLO was queued
            }
            WireEvent::Hello { hello, shared } => {
                self.stats.count_received("HELLO");
                self.known.insert(node_fp(&hello.node_id));
                // Policy 1: peer cap (counts the new conn itself).
                if self.active_peers() > self.profile.max_peers {
                    self.disconnect_conn(ctx, conn, DisconnectReason::TooManyPeers);
                    return;
                }
                // Policy 2: no shared capability → useless.
                if shared.is_empty() {
                    self.disconnect_conn(ctx, conn, DisconnectReason::UselessPeer);
                    return;
                }
                // Policy 3: eth negotiation → STATUS goes first.
                if shared.iter().any(|c| c.name == "eth") {
                    match self.our_status() {
                        Some(st) => self.send_eth_on(ctx, conn, &EthMessage::Status(st)),
                        None => {
                            // Light/other node that advertised eth-compatible
                            // caps it can't serve: drop as useless.
                            if matches!(self.profile.service, ServiceKind::OtherService) {
                                self.disconnect_conn(ctx, conn, DisconnectReason::UselessPeer);
                            }
                            // Light nodes simply never send STATUS (§5.3).
                        }
                    }
                }
            }
            WireEvent::Eth(msg) => {
                self.stats.count_received(eth_label(&msg));
                self.handle_eth(ctx, conn, msg);
            }
            WireEvent::OtherSubprotocol { .. } => {
                self.stats.count_received("OTHER_SUBPROTOCOL");
            }
            WireEvent::Ping => {
                self.stats.count_received("PING");
                self.stats.count_sent("PONG");
                if let Some(frames) = self.with_conn_mut(conn, |pc| pc.flush_session()) {
                    for f in frames {
                        ctx.tcp_send(conn, f);
                    }
                }
            }
            WireEvent::Pong => self.stats.count_received("PONG"),
            WireEvent::Disconnected(reason) => {
                self.stats.count_received("DISCONNECT");
                *self
                    .stats
                    .disconnects_received
                    .entry(reason.label())
                    .or_insert(0) += 1;
                ctx.tcp_close(conn);
                self.drop_conn(ctx, conn);
            }
            WireEvent::ProtocolError(_) => {
                ctx.tcp_close(conn);
                self.drop_conn(ctx, conn);
            }
        }
    }

    fn handle_eth(&mut self, ctx: &mut Ctx, conn: ConnId, msg: EthMessage) {
        match msg {
            EthMessage::Status(theirs) => {
                let Some(ours) = self.our_status() else {
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
                let reason = match self.profile.kind {
                    // Parity implements nothing above 0x0b, so mismatches
                    // surface as UselessPeer.
                    ClientKind::Parity => DisconnectReason::UselessPeer,
                    // Geth distinguishes: wrong genesis/network is a
                    // subprotocol-level error.
                    _ => DisconnectReason::SubprotocolError,
                };
                self.disconnect_conn(ctx, conn, reason);
            }
            EthMessage::GetBlockHeaders {
                start,
                max_headers,
                skip,
                reverse,
            } => {
                if let ServiceKind::Eth { chain } = &self.profile.service {
                    let start_num = match start {
                        BlockId::Number(n) => Some(n),
                        // Hash lookups supported for the head only (enough
                        // for sync-start probes).
                        BlockId::Hash(h) if h == chain.best_hash() => Some(chain.head),
                        BlockId::Hash(_) => None,
                    };
                    let headers = match start_num {
                        Some(n) => chain.headers(n, max_headers as usize, skip, reverse),
                        None => Vec::new(),
                    };
                    self.send_eth_on(ctx, conn, &EthMessage::BlockHeaders(headers));
                }
            }
            EthMessage::GetBlockBodies(hashes) => {
                let bodies = vec![vec![0u8; 64]; hashes.len().min(16)];
                self.send_eth_on(ctx, conn, &EthMessage::BlockBodies(bodies));
            }
            EthMessage::GetReceipts(hashes) => {
                let receipts = vec![vec![0u8; 32]; hashes.len().min(16)];
                self.send_eth_on(ctx, conn, &EthMessage::Receipts(receipts));
            }
            EthMessage::GetNodeData(hashes) => {
                let data = vec![vec![0u8; 32]; hashes.len().min(16)];
                self.send_eth_on(ctx, conn, &EthMessage::NodeData(data));
            }
            // Gossip is consumed (counted by the caller) but not re-flooded
            // — echo suppression stands in for real dedup logic.
            EthMessage::Transactions(_)
            | EthMessage::NewBlockHashes(_)
            | EthMessage::NewBlock { .. }
            | EthMessage::BlockHeaders(_)
            | EthMessage::BlockBodies(_)
            | EthMessage::NodeData(_)
            | EthMessage::Receipts(_) => {}
        }
    }

    fn gossip_transactions(&mut self, ctx: &mut Ctx) {
        if self.profile.tx_interval_ms == 0 {
            return;
        }
        let ready: Vec<ConnId> = self
            .eth_ready
            .iter()
            .copied()
            .filter(|c| self.conns.get(c).map(|p| p.is_active()).unwrap_or(false))
            .collect();
        if ready.is_empty() {
            return;
        }
        let fanout = self.profile.tx_fanout(ready.len()).min(ready.len());
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
            self.send_eth_on(ctx, conn, &msg);
        }
    }

    fn rotate_identity(&mut self, ctx: &mut Ctx) {
        // Mint a fresh key: the spammer's defining behaviour.
        let new_key = SecretKey::random(ctx.rng());
        self.profile.key = new_key;
        self.stats.identities.push(self.profile.node_id());
        let addr = ctx.local_addr();
        let config = DiscConfig {
            metric: self.profile.metric,
            ..DiscConfig::default()
        };
        let mut disc = Discv4::new(new_key, Self::endpoint(addr), config);
        // Re-announce to bootstraps under the new identity.
        let mut outgoing = Vec::new();
        for b in self.bootstrap.iter() {
            if b.id != self.profile.node_id() {
                outgoing.push(disc.ping(*b, ctx.now_ms));
            }
        }
        self.disc = Some(disc);
        // Old connections die with the old identity.
        let conns: Vec<ConnId> = self.conns.keys().copied().collect();
        for c in conns {
            ctx.tcp_close(c);
            self.drop_conn(ctx, c);
        }
        self.send_disc(ctx, outgoing);
    }

    // ---- checkpoint/restore -------------------------------------------

    /// Serialize every piece of dynamic state a restore cannot rebuild
    /// from the profile. Static structure — the bootstrap flyweight, the
    /// capability list, the chain, the service kind — is deliberately
    /// absent: the world shell reconstructs it, which is what keeps `Rc`
    /// allocations shared after a restore.
    fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_header(NODE_SNAP_MAGIC, NODE_SNAP_VERSION);
        // Mutable profile slices: rotation rewrites the key, release
        // plans rewrite the client id on (re)start.
        self.profile.key.to_bytes().snap(&mut w);
        self.profile.client_id.snap(&mut w);
        w.bool(self.disc.is_some());
        if let Some(disc) = &self.disc {
            disc.snap(&mut w);
        }
        w.usize(self.conns.len());
        for pc in self.conns.values() {
            pc.snap(&mut w);
        }
        self.eth_ready.snap(&mut w);
        self.candidates.snap(&mut w);
        self.known.snap(&mut w);
        self.dialing.snap(&mut w);
        self.disc_armed.snap(&mut w);
        self.dial_armed.snap(&mut w);
        self.poll_armed.snap(&mut w);
        self.dry_lookups.snap(&mut w);
        self.next_retry_ms.snap(&mut w);
        self.sample_peers.snap(&mut w);
        self.stats.snap(&mut w);
        w.finish()
    }

    /// Overwrite this (shell-rebuilt) node's dynamic state from
    /// [`EthNode::encode_state`] output; on `Err` nothing is overwritten.
    fn apply_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::with_header(bytes, NODE_SNAP_MAGIC, NODE_SNAP_VERSION)?;
        let key = SecretKey::from_bytes(&<[u8; 32]>::unsnap(&mut r)?)
            .map_err(|_| SnapError::Corrupt("node identity key does not decode"))?;
        let client_id = String::unsnap(&mut r)?;
        let disc = if r.bool()? {
            let config = DiscConfig {
                metric: self.profile.metric,
                ..DiscConfig::default()
            };
            Some(Discv4::restore(&mut r, key, config)?)
        } else {
            None
        };
        let mut conns = BTreeMap::new();
        for _ in 0..r.usize()? {
            let pc = PeerConn::restore(&mut r, &key)?;
            if conns.insert(pc.conn, pc).is_some() {
                return Err(SnapError::Corrupt("connection id repeats"));
            }
        }
        let eth_ready = Snap::unsnap(&mut r)?;
        let candidates = Snap::unsnap(&mut r)?;
        let known = Snap::unsnap(&mut r)?;
        let dialing = Snap::unsnap(&mut r)?;
        let disc_armed = Snap::unsnap(&mut r)?;
        let dial_armed = Snap::unsnap(&mut r)?;
        let poll_armed = Snap::unsnap(&mut r)?;
        let dry_lookups = Snap::unsnap(&mut r)?;
        let next_retry_ms = Snap::unsnap(&mut r)?;
        let sample_peers = Snap::unsnap(&mut r)?;
        let stats = Snap::unsnap(&mut r)?;
        r.finish()?;

        self.profile.key = key;
        self.profile.client_id = client_id;
        self.disc = disc;
        self.active_conns = conns.values().filter(|c| c.is_active()).count();
        self.conns = conns;
        self.eth_ready = eth_ready;
        self.candidates = candidates;
        self.known = known;
        self.dialing = dialing;
        self.disc_armed = disc_armed;
        self.dial_armed = dial_armed;
        self.poll_armed = poll_armed;
        self.dry_lookups = dry_lookups;
        self.next_retry_ms = next_retry_ms;
        self.sample_peers = sample_peers;
        self.stats = stats;
        Ok(())
    }
}

impl Host for EthNode {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        // Version upgrades land on restart (churn drives Fig 10).
        if let Some(plan) = self.profile.release_plan {
            self.profile.client_id = plan.client_id_at(ctx.now_ms);
        }
        let addr = ctx.local_addr();
        let config = DiscConfig {
            metric: self.profile.metric,
            ..DiscConfig::default()
        };
        let mut disc = Discv4::new(self.profile.key, Self::endpoint(addr), config);
        self.stats.identities.push(self.profile.node_id());
        let mut outgoing = Vec::new();
        for b in self.bootstrap.iter() {
            if b.id != self.profile.node_id() {
                outgoing.push(disc.ping(*b, ctx.now_ms));
            }
        }
        self.disc = Some(disc);
        self.send_disc(ctx, outgoing);
        self.arm_disc(ctx);
        if self.profile.tx_interval_ms > 0 {
            ctx.set_timer(self.profile.tx_interval_ms, T_TX);
        }
        if self.sample_peers {
            ctx.set_timer(SAMPLE_INTERVAL_MS, T_SAMPLE);
        }
        if let Some(rot) = self.profile.identity_rotation_ms {
            ctx.set_timer(rot, T_ROTATE);
        }
    }

    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        let Some(disc) = self.disc.as_mut() else {
            return;
        };
        let from_ep = Endpoint {
            ip: from.ip,
            udp_port: from.port,
            tcp_port: from.port,
        };
        let outgoing = disc.on_datagram(from_ep, datagram, ctx.now_ms);
        self.send_disc(ctx, outgoing);
        self.drain_disc_events(ctx);
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn, .. } => {
                self.dialing = self.dialing.saturating_sub(1);
                let key = self.profile.key;
                let frames = self
                    .with_conn_mut(conn, |pc| pc.on_tcp_connected(ctx.rng(), &key))
                    .unwrap_or_default();
                for f in frames {
                    ctx.tcp_send(conn, f);
                }
                if let Some(pc) = self.conns.get(&conn) {
                    if pc.is_dead() {
                        ctx.tcp_close(conn);
                        self.drop_conn(ctx, conn);
                    }
                }
            }
            TcpEvent::ConnectFailed { conn } => {
                self.dialing = self.dialing.saturating_sub(1);
                self.drop_conn(ctx, conn);
            }
            TcpEvent::Incoming { conn, .. } => {
                if self.conns.contains_key(&conn) {
                    // Self-connection (we dialed our own address): refuse.
                    ctx.tcp_close(conn);
                    self.drop_conn(ctx, conn);
                    return;
                }
                let hello = self.local_hello(ctx.local_addr());
                self.conns
                    .insert(conn, PeerConn::accepted(conn, hello, ctx.now_ms));
            }
            TcpEvent::Data { conn, bytes } => {
                let key = self.profile.key;
                let Some((events, out)) =
                    self.with_conn_mut(conn, |pc| pc.on_data(ctx.rng(), &key, &bytes))
                else {
                    return;
                };
                for f in out {
                    ctx.tcp_send(conn, f);
                }
                for e in events {
                    self.handle_wire_event(ctx, conn, e);
                }
                if self.conns.get(&conn).map(|p| p.is_dead()).unwrap_or(false) {
                    ctx.tcp_close(conn);
                    self.drop_conn(ctx, conn);
                }
            }
            TcpEvent::Closed { conn } => {
                self.drop_conn(ctx, conn);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token {
            T_DISC => {
                self.disc_armed = false;
                if self.at_capacity() {
                    return; // re-armed when a slot frees
                }
                let mut outgoing = Vec::new();
                if let Some(disc) = self.disc.as_mut() {
                    outgoing.extend(disc.poll(ctx.now_ms));
                    if !disc.lookup_in_progress() {
                        let mut target = [0u8; 64];
                        ctx.rng().fill(&mut target[..]);
                        let disc = self.disc.as_mut().unwrap();
                        outgoing.extend(disc.start_lookup(NodeId(target), ctx.now_ms));
                        self.stats.lookups += 1;
                        self.dry_lookups = self.dry_lookups.saturating_add(1);
                    }
                }
                self.send_disc(ctx, outgoing);
                self.drain_disc_events(ctx);
                self.arm_disc(ctx);
            }
            T_DIAL => {
                self.dial_armed = false;
                self.dial_some(ctx);
                self.arm_dial(ctx);
            }
            T_TX => {
                self.gossip_transactions(ctx);
                ctx.set_timer(self.profile.tx_interval_ms, T_TX);
            }
            T_SAMPLE => {
                let peers = self.active_peers();
                self.stats.peer_samples.push((ctx.now_ms, peers));
                ctx.set_timer(SAMPLE_INTERVAL_MS, T_SAMPLE);
            }
            T_POLL => {
                self.poll_armed = false;
                let outgoing = match self.disc.as_mut() {
                    Some(d) => d.poll(ctx.now_ms),
                    None => Vec::new(),
                };
                self.send_disc(ctx, outgoing);
                self.drain_disc_events(ctx);
                self.arm_poll(ctx);
            }
            T_ROTATE => {
                self.rotate_identity(ctx);
                if let Some(rot) = self.profile.identity_rotation_ms {
                    ctx.set_timer(rot, T_ROTATE);
                }
            }
            _ => {}
        }
    }

    fn save_state(&self) -> Result<Vec<u8>, SnapError> {
        Ok(self.encode_state())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.apply_state(bytes)
    }

    fn on_stop(&mut self, _ctx: &mut Ctx) {
        self.conns.clear();
        self.active_conns = 0;
        self.eth_ready.clear();
        self.dialing = 0;
        self.disc = None;
        self.disc_armed = false;
        self.dial_armed = false;
        self.poll_armed = false;
        self.candidates.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::NodeProfile;
    use ethwire::{Chain, ChainConfig};

    fn node() -> EthNode {
        let key = SecretKey::from_bytes(&[0x11u8; 32]).unwrap();
        let chain = Chain::new(ChainConfig::mainnet(), 1000);
        EthNode::new(NodeProfile::geth(key, "Geth/test".into(), chain), vec![])
    }

    #[test]
    fn intern_label_covers_wire_and_disconnect_vocabulary() {
        assert_eq!(intern_label("TRANSACTIONS"), "TRANSACTIONS");
        assert_eq!(intern_label("Too many peers"), "Too many peers");
        // Unknown labels still produce a usable 'static str.
        assert_eq!(intern_label("FUTURE_MESSAGE"), "FUTURE_MESSAGE");
    }

    #[test]
    fn eth_labels_cover_all_messages() {
        let msgs = [
            EthMessage::Status(Status {
                protocol_version: 63,
                network_id: 1,
                total_difficulty: 1,
                best_hash: [0; 32],
                genesis_hash: [0; 32],
            }),
            EthMessage::Transactions(vec![]),
            EthMessage::GetBlockHeaders {
                start: BlockId::Number(0),
                max_headers: 1,
                skip: 0,
                reverse: false,
            },
            EthMessage::BlockHeaders(vec![]),
            EthMessage::NewBlockHashes(vec![]),
            EthMessage::GetBlockBodies(vec![]),
            EthMessage::BlockBodies(vec![]),
            EthMessage::NewBlock {
                block: vec![],
                total_difficulty: 0,
            },
            EthMessage::GetNodeData(vec![]),
            EthMessage::NodeData(vec![]),
            EthMessage::GetReceipts(vec![]),
            EthMessage::Receipts(vec![]),
        ];
        let labels: std::collections::BTreeSet<&str> = msgs.iter().map(eth_label).collect();
        assert_eq!(labels.len(), msgs.len(), "labels must be distinct");
    }

    #[test]
    fn stats_counters_accumulate() {
        let mut stats = NodeStats::default();
        stats.count_sent("TRANSACTIONS");
        stats.count_sent("TRANSACTIONS");
        stats.count_received("HELLO");
        assert_eq!(stats.sent["TRANSACTIONS"], 2);
        assert_eq!(stats.received["HELLO"], 1);
    }

    #[test]
    fn fresh_node_has_no_peers_and_identity() {
        let n = node();
        assert_eq!(n.active_peers(), 0);
        assert!(!n.at_capacity());
        assert_eq!(n.node_id(), n.profile().node_id());
    }

    #[test]
    fn our_status_reflects_chain() {
        let n = node();
        let st = n.our_status().expect("eth node has a status");
        assert_eq!(st.network_id, 1);
        assert_eq!(st.genesis_hash, ethwire::MAINNET_GENESIS);
        let chain = Chain::new(ChainConfig::mainnet(), 1000);
        assert_eq!(st.best_hash, chain.best_hash());
        assert_eq!(st.total_difficulty, chain.total_difficulty());
    }

    #[test]
    fn light_and_other_nodes_have_no_status() {
        let key = SecretKey::from_bytes(&[0x22u8; 32]).unwrap();
        let light = EthNode::new(
            NodeProfile::light(key, "les".into(), devp2p::Capability::new("les", 2)),
            vec![],
        );
        assert!(light.our_status().is_none());
    }
}
