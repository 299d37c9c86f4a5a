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
/// Current behaviour-state format version (2: one discv4 bond table).
const NODE_SNAP_VERSION: u8 = 2;

/// Instrumentation counters — Figures 2, 3, 4 and Table 1 read these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// What [`EthNode::stats`] reads before the node's first count.
static NO_STATS: NodeStats = NodeStats {
    sent: BTreeMap::new(),
    received: BTreeMap::new(),
    disconnects_sent: BTreeMap::new(),
    disconnects_received: BTreeMap::new(),
    peer_samples: Vec::new(),
    identities: Vec::new(),
    lookups: 0,
    dials: 0,
};

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

/// What a node holds while it runs and [`Host::on_stop`] drops: the
/// discovery engine and the peers and dials that hang off it.
#[derive(Debug)]
struct Running {
    disc: Discv4,
    conns: BTreeMap<ConnId, PeerConn>,
    /// Count of `conns` entries whose `is_active()` is true, maintained
    /// incrementally by [`Running::with_conn_mut`] / [`EthNode::drop_conn`].
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
}

/// A population node.
///
/// Most hosts of a paper-scale world are not running at any moment, so
/// the node keeps inline only what outlives a run; what `on_stop` clears
/// lives in one box that exists exactly while the node runs, and the
/// counters arrive with the first count.
#[derive(Debug)]
pub struct EthNode {
    profile: NodeProfile,
    /// Shared flyweight: every node in a world points at the same
    /// bootstrap allocation (the list is immutable after `World::build`).
    bootstrap: Rc<[NodeRecord]>,
    running: Option<Box<Running>>,
    known: BTreeSet<u64>,
    /// Consecutive discovery rounds that yielded nothing new.
    dry_lookups: u32,
    /// Earliest time the next table-retry refill may run.
    next_retry_ms: u64,
    /// Record peer-count samples (case-study instrumentation only).
    pub sample_peers: bool,
    stats: Option<Box<NodeStats>>,
}

impl EthNode {
    /// Build a node from its profile and bootstrap list. Accepts either an
    /// owned `Vec<NodeRecord>` or a pre-shared `Rc<[NodeRecord]>`; worlds
    /// build the `Rc` once and hand every node the same allocation.
    pub fn new(profile: NodeProfile, bootstrap: impl Into<Rc<[NodeRecord]>>) -> EthNode {
        EthNode {
            profile,
            bootstrap: bootstrap.into(),
            running: None,
            known: BTreeSet::new(),
            dry_lookups: 0,
            next_retry_ms: 0,
            sample_peers: false,
            stats: None,
        }
    }

    /// Its counters; all empty until the node first counts something.
    pub fn stats(&self) -> &NodeStats {
        self.stats.as_deref().unwrap_or(&NO_STATS)
    }

    fn stats_mut(&mut self) -> &mut NodeStats {
        self.stats.get_or_insert_with(Box::default)
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
            .known
            .len()
            .saturating_mul(size_of::<u64>() + NODE_OVERHEAD);
        if let Some(run) = self.running.as_deref() {
            total += size_of::<Running>();
            total += run
                .conns
                .values()
                .map(|pc| size_of::<(ConnId, PeerConn)>() + NODE_OVERHEAD + pc.heap_bytes())
                .sum::<usize>();
            total += run
                .eth_ready
                .len()
                .saturating_mul(size_of::<ConnId>() + NODE_OVERHEAD);
            total += run.candidates.capacity() * size_of::<NodeRecord>();
            total += run.disc.table().len() * (size_of::<NodeRecord>() + NODE_OVERHEAD);
            total += run.disc.heap_bytes();
        }
        if let Some(stats) = self.stats.as_deref() {
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

    fn endpoint(addr: HostAddr) -> Endpoint {
        Endpoint {
            ip: addr.ip,
            udp_port: addr.port,
            tcp_port: addr.port,
        }
    }

    fn local_hello(profile: &NodeProfile, addr: HostAddr) -> Hello {
        Hello {
            p2p_version: P2P_VERSION,
            client_id: profile.client_id.clone(),
            capabilities: profile.capabilities.to_vec(),
            listen_port: addr.port,
            node_id: profile.node_id(),
        }
    }

    fn active_peers(&self) -> usize {
        self.running.as_deref().map_or(0, Running::active_peers)
    }

    fn at_capacity(&self) -> bool {
        self.active_peers() >= self.profile.max_peers
    }

    fn with_conn_mut<R>(&mut self, conn: ConnId, f: impl FnOnce(&mut PeerConn) -> R) -> Option<R> {
        self.running.as_deref_mut()?.with_conn_mut(conn, f)
    }

    fn conn(&self, conn: ConnId) -> Option<&PeerConn> {
        self.running.as_deref()?.conns.get(&conn)
    }

    /// A dial resolved, connected or not.
    fn dial_settled(&mut self) {
        if let Some(run) = self.running.as_deref_mut() {
            run.dialing = run.dialing.saturating_sub(1);
        }
    }

    // ---- discovery ----------------------------------------------------

    fn send_disc(&mut self, ctx: &mut Ctx, outgoing: Vec<discv4::Outgoing>) {
        for o in outgoing {
            ctx.send_udp(HostAddr::new(o.to.ip, o.to.udp_port), o.datagram);
        }
        self.arm_poll(ctx);
    }

    fn arm_poll(&mut self, ctx: &mut Ctx) {
        let Some(run) = self.running.as_deref_mut() else {
            return;
        };
        if !run.poll_armed && run.disc.has_pending() {
            run.poll_armed = true;
            ctx.set_timer(POLL_TICK_MS, T_POLL);
        }
    }

    fn arm_disc(&mut self, ctx: &mut Ctx) {
        let at_capacity = self.at_capacity();
        let Some(run) = self.running.as_deref_mut() else {
            return;
        };
        if !run.disc_armed && !at_capacity {
            run.disc_armed = true;
            let backoff = LOOKUP_INTERVAL_MS << self.dry_lookups.min(4);
            ctx.set_timer(backoff.min(LOOKUP_BACKOFF_MAX_MS), T_DISC);
        }
    }

    fn arm_dial(&mut self, ctx: &mut Ctx) {
        let at_capacity = self.at_capacity();
        let Some(run) = self.running.as_deref_mut() else {
            return;
        };
        if run.dial_armed {
            return;
        }
        if !run.candidates.is_empty() {
            run.dial_armed = true;
            ctx.set_timer(DIAL_TICK_MS, T_DIAL);
        } else if !at_capacity && !run.disc.table().is_empty() {
            // Only retry work remains: wake at the paced refill time.
            run.dial_armed = true;
            let delay = self
                .next_retry_ms
                .saturating_sub(ctx.now_ms)
                .max(DIAL_TICK_MS);
            ctx.set_timer(delay, T_DIAL);
        }
    }

    fn drain_disc_events(&mut self, ctx: &mut Ctx) {
        let Some(run) = self.running.as_deref_mut() else {
            return;
        };
        let events = run.disc.take_events();
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
                    run.candidates.push_back(record);
                    self.dry_lookups = 0;
                }
            }
        }
        self.arm_dial(ctx);
    }

    // ---- dialing ------------------------------------------------------

    fn dial_some(&mut self, ctx: &mut Ctx) {
        let at_capacity = self.at_capacity();
        let Some(run) = self.running.as_deref_mut() else {
            return;
        };
        // Fresh discoveries first; once the queue is dry, retry known table
        // residents we aren't connected to (Geth keeps redialing table
        // nodes — without this no client ever fills its peer cap, because
        // first-attempt dials often land on full peers).
        if run.candidates.is_empty() && !at_capacity && ctx.now_ms >= self.next_retry_ms {
            self.next_retry_ms = ctx.now_ms + RETRY_REFILL_MS;
            let connected: BTreeSet<NodeId> =
                run.conns.values().filter_map(|c| c.peer_id).collect();
            let retry: Vec<NodeRecord> = run
                .disc
                .table()
                .entries()
                .map(|e| e.record)
                .filter(|r| !connected.contains(&r.id))
                .take(8)
                .collect();
            run.candidates.extend(retry);
        }
        let mut dials = 0;
        while run.dialing < MAX_ACTIVE_DIALS
            && run.active_peers() + run.dialing < self.profile.max_peers
        {
            let Some(candidate) = run.candidates.pop_front() else {
                break;
            };
            if run.conns.values().any(|c| c.peer_id == Some(candidate.id)) {
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
            let hello = Self::local_hello(&self.profile, ctx.local_addr());
            run.conns.insert(
                conn,
                PeerConn::dialing(conn, candidate.id, hello, ctx.now_ms),
            );
            run.dialing += 1;
            dials += 1;
        }
        if dials > 0 {
            self.stats_mut().dials += dials;
        }
    }

    // ---- session policy -----------------------------------------------

    fn count_eth_sent(&mut self, msg: &EthMessage) {
        self.stats_mut().count_sent(eth_label(msg));
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
                let stats = self.stats_mut();
                stats.count_sent("DISCONNECT");
                *stats.disconnects_sent.entry(reason.label()).or_insert(0) += 1;
            }
            for f in frames {
                ctx.tcp_send(conn, f);
            }
            ctx.tcp_close(conn);
        }
        self.drop_conn(ctx, conn);
    }

    fn drop_conn(&mut self, ctx: &mut Ctx, conn: ConnId) {
        if let Some(run) = self.running.as_deref_mut() {
            if let Some(pc) = run.conns.remove(&conn) {
                if pc.is_active() {
                    run.active_conns -= 1;
                }
            }
            run.eth_ready.remove(&conn);
        }
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
                self.stats_mut().count_sent("HELLO"); // our HELLO was queued
            }
            WireEvent::Hello { hello, shared } => {
                self.stats_mut().count_received("HELLO");
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
                self.stats_mut().count_received(eth_label(&msg));
                self.handle_eth(ctx, conn, msg);
            }
            WireEvent::OtherSubprotocol { .. } => {
                self.stats_mut().count_received("OTHER_SUBPROTOCOL");
            }
            WireEvent::Ping => {
                self.stats_mut().count_received("PING");
                self.stats_mut().count_sent("PONG");
                if let Some(frames) = self.with_conn_mut(conn, |pc| pc.flush_session()) {
                    for f in frames {
                        ctx.tcp_send(conn, f);
                    }
                }
            }
            WireEvent::Pong => self.stats_mut().count_received("PONG"),
            WireEvent::Disconnected(reason) => {
                let stats = self.stats_mut();
                stats.count_received("DISCONNECT");
                *stats
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
                    if let Some(run) = self.running.as_deref_mut() {
                        run.eth_ready.insert(conn);
                    }
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
        let Some(run) = self.running.as_deref() else {
            return;
        };
        let ready: Vec<ConnId> = run
            .eth_ready
            .iter()
            .copied()
            .filter(|c| run.conns.get(c).is_some_and(PeerConn::is_active))
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
        let id = self.profile.node_id();
        self.stats_mut().identities.push(id);
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
        let Some(run) = self.running.as_deref_mut() else {
            return;
        };
        run.disc = disc;
        // Old connections die with the old identity.
        let conns: Vec<ConnId> = run.conns.keys().copied().collect();
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
    /// allocations shared after a restore. The section goes straight into
    /// the engine's image `w`, header first.
    fn encode_state(&self, w: &mut SnapWriter) {
        w.header(NODE_SNAP_MAGIC, NODE_SNAP_VERSION);
        // Mutable profile slices: rotation rewrites the key, release
        // plans rewrite the client id on (re)start.
        self.profile.key.to_bytes().snap(w);
        self.profile.client_id.snap(w);
        // A stopped node writes what a running one holds when empty:
        // no engine, then zero conns, eth-ready ids and candidates.
        let run = self.running.as_deref();
        w.bool(run.is_some());
        match run {
            Some(run) => {
                run.disc.snap(w);
                w.usize(run.conns.len());
                for pc in run.conns.values() {
                    pc.snap(w);
                }
                run.eth_ready.snap(w);
                run.candidates.snap(w);
            }
            None => {
                w.usize(0);
                w.usize(0);
                w.usize(0);
            }
        }
        self.known.snap(w);
        run.map_or(0, |run| run.dialing).snap(w);
        for armed in run.map_or([false; 3], |run| {
            [run.disc_armed, run.dial_armed, run.poll_armed]
        }) {
            armed.snap(w);
        }
        self.dry_lookups.snap(w);
        self.next_retry_ms.snap(w);
        self.sample_peers.snap(w);
        self.stats().snap(w);
    }

    /// Overwrite this (shell-rebuilt) node's dynamic state from
    /// [`EthNode::encode_state`] output; on `Err` nothing is overwritten.
    /// A node without a discovery engine is stopped, and an image that
    /// gives it running state is one no run wrote.
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
        let eth_ready: BTreeSet<ConnId> = Snap::unsnap(&mut r)?;
        let candidates: VecDeque<NodeRecord> = Snap::unsnap(&mut r)?;
        let known = Snap::unsnap(&mut r)?;
        let dialing: usize = Snap::unsnap(&mut r)?;
        let disc_armed = r.bool()?;
        let dial_armed = r.bool()?;
        let poll_armed = r.bool()?;
        let dry_lookups = Snap::unsnap(&mut r)?;
        let next_retry_ms = Snap::unsnap(&mut r)?;
        let sample_peers = Snap::unsnap(&mut r)?;
        let stats: NodeStats = Snap::unsnap(&mut r)?;
        r.finish()?;
        let running = match disc {
            Some(disc) => Some(Box::new(Running {
                disc,
                active_conns: conns.values().filter(|c| c.is_active()).count(),
                conns,
                eth_ready,
                candidates,
                dialing,
                disc_armed,
                dial_armed,
                poll_armed,
            })),
            None if conns.is_empty()
                && eth_ready.is_empty()
                && candidates.is_empty()
                && dialing == 0
                && !(disc_armed || dial_armed || poll_armed) =>
            {
                None
            }
            None => return Err(SnapError::Corrupt("a stopped node holds running state")),
        };

        self.profile.key = key;
        self.profile.client_id = client_id;
        self.running = running;
        self.known = known;
        self.dry_lookups = dry_lookups;
        self.next_retry_ms = next_retry_ms;
        self.sample_peers = sample_peers;
        self.stats = (stats != NO_STATS).then(|| Box::new(stats));
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
        let id = self.profile.node_id();
        self.stats_mut().identities.push(id);
        let mut outgoing = Vec::new();
        for b in self.bootstrap.iter() {
            if b.id != self.profile.node_id() {
                outgoing.push(disc.ping(*b, ctx.now_ms));
            }
        }
        self.running = Some(Box::new(Running::new(disc)));
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
        let Some(run) = self.running.as_deref_mut() else {
            return;
        };
        let from_ep = Endpoint {
            ip: from.ip,
            udp_port: from.port,
            tcp_port: from.port,
        };
        let outgoing = run.disc.on_datagram(from_ep, datagram, ctx.now_ms);
        self.send_disc(ctx, outgoing);
        self.drain_disc_events(ctx);
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn, .. } => {
                self.dial_settled();
                let key = self.profile.key;
                let frames = self
                    .with_conn_mut(conn, |pc| pc.on_tcp_connected(ctx.rng(), &key))
                    .unwrap_or_default();
                for f in frames {
                    ctx.tcp_send(conn, f);
                }
                if self.conn(conn).is_some_and(PeerConn::is_dead) {
                    ctx.tcp_close(conn);
                    self.drop_conn(ctx, conn);
                }
            }
            TcpEvent::ConnectFailed { conn } => {
                self.dial_settled();
                self.drop_conn(ctx, conn);
            }
            TcpEvent::Incoming { conn, .. } => {
                if self.conn(conn).is_some() {
                    // Self-connection (we dialed our own address): refuse.
                    ctx.tcp_close(conn);
                    self.drop_conn(ctx, conn);
                    return;
                }
                let hello = Self::local_hello(&self.profile, ctx.local_addr());
                if let Some(run) = self.running.as_deref_mut() {
                    run.conns
                        .insert(conn, PeerConn::accepted(conn, hello, ctx.now_ms));
                }
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
                if self.conn(conn).is_some_and(PeerConn::is_dead) {
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
                let at_capacity = self.at_capacity();
                let Some(run) = self.running.as_deref_mut() else {
                    return;
                };
                run.disc_armed = false;
                if at_capacity {
                    return; // re-armed when a slot frees
                }
                let mut outgoing = run.disc.poll(ctx.now_ms);
                if !run.disc.lookup_in_progress() {
                    let mut target = [0u8; 64];
                    ctx.rng().fill(&mut target[..]);
                    outgoing.extend(run.disc.start_lookup(NodeId(target), ctx.now_ms));
                    self.stats_mut().lookups += 1;
                    self.dry_lookups = self.dry_lookups.saturating_add(1);
                }
                self.send_disc(ctx, outgoing);
                self.drain_disc_events(ctx);
                self.arm_disc(ctx);
            }
            T_DIAL => {
                if let Some(run) = self.running.as_deref_mut() {
                    run.dial_armed = false;
                }
                self.dial_some(ctx);
                self.arm_dial(ctx);
            }
            T_TX => {
                self.gossip_transactions(ctx);
                ctx.set_timer(self.profile.tx_interval_ms, T_TX);
            }
            T_SAMPLE => {
                let peers = self.active_peers();
                self.stats_mut().peer_samples.push((ctx.now_ms, peers));
                ctx.set_timer(SAMPLE_INTERVAL_MS, T_SAMPLE);
            }
            T_POLL => {
                let Some(run) = self.running.as_deref_mut() else {
                    return;
                };
                run.poll_armed = false;
                let outgoing = run.disc.poll(ctx.now_ms);
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

    /// An `ETHN` section for a node without a discovery engine, written
    /// field by field, carrying the running state given.
    fn stopped_image(
        conns: &[PeerConn],
        eth_ready: &[ConnId],
        candidates: &[NodeRecord],
        dialing: usize,
        armed: [bool; 3],
    ) -> Vec<u8> {
        let n = node();
        let mut w = SnapWriter::new();
        w.header(NODE_SNAP_MAGIC, NODE_SNAP_VERSION);
        n.profile.key.to_bytes().snap(&mut w);
        n.profile.client_id.snap(&mut w);
        w.bool(false);
        w.usize(conns.len());
        for pc in conns {
            pc.snap(&mut w);
        }
        eth_ready
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .snap(&mut w);
        candidates
            .iter()
            .copied()
            .collect::<VecDeque<_>>()
            .snap(&mut w);
        BTreeSet::<u64>::new().snap(&mut w);
        dialing.snap(&mut w);
        for a in armed {
            a.snap(&mut w);
        }
        0u32.snap(&mut w);
        0u64.snap(&mut w);
        false.snap(&mut w);
        NodeStats::default().snap(&mut w);
        w.finish()
    }

    /// A stopped node writes the empty defaults of a running one, and
    /// restore refuses an image whose stopped node still holds a
    /// connection, an eth-ready id, a candidate, a dial or an armed timer.
    #[test]
    fn restore_refuses_running_state_on_a_stopped_node() {
        let restore = |bytes: &[u8]| node().load_state(bytes);
        let clean = stopped_image(&[], &[], &[], 0, [false; 3]);
        let mut w = SnapWriter::new();
        node().save_state(&mut w).unwrap();
        assert_eq!(w.finish(), clean, "a fresh node writes the empty defaults");
        assert_eq!(restore(&clean), Ok(()));

        let peer = SecretKey::from_bytes(&[0x33u8; 32]).unwrap();
        let peer_id = NodeId::from_secret_key(&peer);
        let hello = Hello {
            p2p_version: P2P_VERSION,
            client_id: "Geth/test".into(),
            capabilities: Vec::new(),
            listen_port: 30303,
            node_id: node().node_id(),
        };
        let conn = PeerConn::accepted(7, hello, 0);
        let candidate = NodeRecord::new(
            peer_id,
            Endpoint::new(std::net::Ipv4Addr::new(10, 0, 0, 2), 30303),
        );
        let why = Err(SnapError::Corrupt("a stopped node holds running state"));
        for (case, bytes) in [
            (
                "a connection",
                stopped_image(&[conn], &[], &[], 0, [false; 3]),
            ),
            (
                "an eth-ready id",
                stopped_image(&[], &[7], &[], 0, [false; 3]),
            ),
            (
                "a candidate",
                stopped_image(&[], &[], &[candidate], 0, [false; 3]),
            ),
            ("a dial", stopped_image(&[], &[], &[], 1, [false; 3])),
            (
                "discovery armed",
                stopped_image(&[], &[], &[], 0, [true, false, false]),
            ),
            (
                "dialing armed",
                stopped_image(&[], &[], &[], 0, [false, true, false]),
            ),
            (
                "polling armed",
                stopped_image(&[], &[], &[], 0, [false, false, true]),
            ),
        ] {
            assert_eq!(restore(&bytes), why, "{case}");
        }
    }

    /// After `on_stop` a node holds what outlives a run and nothing else:
    /// its heap estimate is that of a fresh node with the same `known`
    /// set and counters, while a running node is charged its running state.
    #[test]
    fn a_stopped_node_is_charged_no_running_state() {
        use netsim::{HostMeta, NetSim, Region, SimConfig};
        use std::net::Ipv4Addr;
        let chain = Chain::new(ChainConfig::mainnet(), 100);
        let profiles: Vec<NodeProfile> = (1..=4u8)
            .map(|i| {
                let key = SecretKey::from_bytes(&[i; 32]).unwrap();
                NodeProfile::geth(key, "Geth/test".into(), chain.clone())
            })
            .collect();
        let addr = |i: usize| HostAddr::new(Ipv4Addr::new(10, 0, 0, i as u8 + 1), 30303);
        let boot: Rc<[NodeRecord]> = vec![NodeRecord::new(
            profiles[0].node_id(),
            Endpoint::new(addr(0).ip, 30303),
        )]
        .into();
        let mut sim = NetSim::new(SimConfig {
            seed: 5,
            ..SimConfig::default()
        });
        let meta = HostMeta {
            country: "US",
            asn: "Test",
            region: Region::NorthAmerica,
            reachable: true,
        };
        let hosts: Vec<_> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let node = EthNode::new(p.clone(), boot.clone());
                let host = sim.add_host(addr(i), meta.clone(), Box::new(node));
                sim.schedule_start(host, 0);
                host
            })
            .collect();
        sim.schedule_stop(hosts[1], 60_000);
        sim.run_until(61_000);
        let mut take = |h| {
            let b = sim.remove_host_behaviour(h).unwrap();
            *b.into_any().downcast::<EthNode>().unwrap()
        };
        // A node, its estimate, and the estimate of a fresh node given
        // what the node keeps across runs; both are read while the same
        // `Rc`s are alive.
        let mut measure = |h| {
            let mut n = take(h);
            let mut shell = EthNode::new(n.profile.clone(), boot.clone());
            let bytes = n.approx_heap_bytes();
            assert!(n.known_count() > 0, "the node ran");
            shell.known = std::mem::take(&mut n.known);
            shell.stats = n.stats.take();
            (n, bytes, shell.approx_heap_bytes())
        };
        let (stopped, bytes, idle) = measure(hosts[1]);
        assert!(stopped.running.is_none());
        assert_eq!(bytes, idle);

        let (mut running, bytes, idle) = measure(hosts[2]);
        assert!(running.table_size() > 0, "the running node discovered");
        assert!(
            bytes >= idle + size_of::<Running>() + running.table_size() * size_of::<NodeRecord>()
        );

        // Its discovery engine is charged its bonds, not only its table:
        // swapping in an empty engine frees at least the table entries
        // plus an id and a stamp per bond.
        let table = running.table_size() * size_of::<NodeRecord>();
        let before = running.approx_heap_bytes();
        let config = DiscConfig {
            metric: running.profile.metric,
            ..DiscConfig::default()
        };
        let empty = Discv4::new(running.profile.key, EthNode::endpoint(addr(2)), config);
        let run = running.running.as_deref_mut().unwrap();
        let bonds = run.disc.bond_count();
        assert!(bonds > 0, "the running node bonded");
        run.disc = empty;
        let freed = before - running.approx_heap_bytes();
        assert!(
            freed >= table + bonds * (size_of::<NodeId>() + size_of::<u64>()),
            "{freed} B freed for {bonds} bonds and a {table} B table"
        );
    }
}
