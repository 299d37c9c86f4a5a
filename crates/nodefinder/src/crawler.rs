//! The NodeFinder crawler host (§4): the wire adapter around the dial
//! policy.
//!
//! The crawl is organized as five explicit stages — discover → dial →
//! handshake → status → ingest (see `stages`). Which node is dialed, and
//! when, is the `policy` module's [`DialPolicy`]; this module does the
//! I/O around it: it feeds the policy discovery sightings, timer ticks
//! and finished probes, opens a probe for every dial the policy returns,
//! advances each probe through handshake and status on wire events, and
//! `finish_probe` ingests the result into the structured log, with the
//! dial events, obs counters and gauges along the way. Checkpoint/restore
//! of the whole pipeline lives in `checkpoint`.

use crate::backoff::BackoffPolicy;
use crate::log::{
    ConnOutcome, ConnType, CrawlLog, DialEvent, DialEventKind, FailureClass, HelloInfo, StatusInfo,
};
use crate::policy::{DialPolicy, Sighting, DIAL_QUEUE_CAP, DIAL_TICK_MS};
use crate::session::Probe;
use crate::stages::Stage;
use devp2p::{Capability, DisconnectReason, Hello, P2P_VERSION};
use discv4::{Config as DiscConfig, Discv4, Event as DiscEvent};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use ethpop::{PeerConn, WireEvent};
use ethwire::{
    BlockId, Chain, ChainConfig, EthMessage, Status, DAO_FORK_BLOCK, DAO_FORK_EXTRA, SNAPSHOT_HEAD,
};
use kad::Metric;
use netsim::{ConnId, Ctx, Host, HostAddr, TcpEvent};
use obs::snap::{SnapError, SnapWriter};
use rand::Rng;
use std::collections::BTreeMap;

/// Per-stage timeout: TCP connect establishment.
const CONNECT_TIMEOUT_MS: u64 = 10_000;
/// Per-stage timeout: RLPx auth/ack after TCP is up.
const HANDSHAKE_TIMEOUT_MS: u64 = 10_000;
/// Per-stage timeout: DEVp2p HELLO after RLPx (catches slow-loris peers
/// that ACK the auth then stall).
const HELLO_TIMEOUT_MS: u64 = 10_000;
/// Per-stage timeout: eth STATUS / DAO headers after HELLO.
const STATUS_TIMEOUT_MS: u64 = 15_000;
/// Discovery poll delay after sends with pending requests.
const POLL_DELAY_MS: u64 = 600;

pub(crate) const T_LOOKUP: u64 = 1;
pub(crate) const T_DIAL: u64 = 2;
pub(crate) const T_STATIC: u64 = 3;
pub(crate) const T_POLL: u64 = 4;
pub(crate) const T_SWEEP: u64 = 5;

/// Crawler tunables. The paper values appear in comments; experiments
/// scale the long intervals with their compressed clock.
#[derive(Debug, Clone)]
pub struct CrawlerConfig {
    /// Instance number (the paper ran 30).
    pub instance: u32,
    /// Discovery lookup cadence (Geth's `lookupInterval`, 4s) — NodeFinder
    /// runs it continuously, peer count be damned.
    pub lookup_interval_ms: u64,
    /// Static re-dial interval (paper: 30 minutes).
    pub static_redial_interval_ms: u64,
    /// Drop static entries with no successful TCP for this long (24h).
    pub stale_after_ms: u64,
    /// Concurrent dynamic dials (Geth's `maxActiveDialTasks`, 16).
    pub max_active_dials: usize,
    /// Hard probe lifetime cap (paper: ≤2 min worst case).
    pub probe_timeout_ms: u64,
    /// Retry backoff for failing endpoints.
    pub backoff: BackoffPolicy,
    /// Consecutive failures before an endpoint enters the penalty box.
    pub penalty_threshold: u32,
    /// Penalty-box sit-out duration, ms.
    pub penalty_box_ms: u64,
    /// Run the DAO-fork header check after a compatible STATUS. NodeFinder
    /// does; the Ethernodes-style comparison crawler (Table 2/6) does not,
    /// which is exactly why it can't separate Mainnet from Classic.
    pub dao_check: bool,
    /// Ablation (§4 design choice 2): keep connections open after probing
    /// instead of disconnecting — i.e. behave like a normal syncing client.
    /// Occupies remote peer slots and throttles coverage.
    pub hold_connections: bool,
}

impl Default for CrawlerConfig {
    fn default() -> CrawlerConfig {
        CrawlerConfig {
            instance: 0,
            lookup_interval_ms: 4_000,
            static_redial_interval_ms: 30 * 60 * 1000,
            stale_after_ms: 24 * 3600 * 1000,
            max_active_dials: 16,
            probe_timeout_ms: 120_000,
            backoff: BackoffPolicy::default(),
            penalty_threshold: 4,
            penalty_box_ms: 10 * 60 * 1000,
            dao_check: true,
            hold_connections: false,
        }
    }
}

impl CrawlerConfig {
    /// An Ethernodes.org-style collector: one instance, no static
    /// re-dials (effectively — a very long interval), no DAO check, a
    /// normal client's discovery cadence (not NodeFinder's relentless 4s
    /// loop), and modest dial concurrency. This is what makes its coverage
    /// a fraction of NodeFinder's in Table 2/6, exactly as on the live
    /// network.
    pub fn ethernodes_style() -> CrawlerConfig {
        CrawlerConfig {
            instance: 1000,
            lookup_interval_ms: 30_000,
            static_redial_interval_ms: u64::MAX / 4,
            stale_after_ms: u64::MAX / 4,
            max_active_dials: 4,
            dao_check: false,
            ..CrawlerConfig::default()
        }
    }
}

/// The crawler. One instance per simulated measurement machine.
#[derive(Debug)]
pub struct NodeFinder {
    pub(crate) key: SecretKey,
    pub(crate) config: CrawlerConfig,
    pub(crate) bootstrap: Vec<NodeRecord>,
    pub(crate) disc: Option<Discv4>,
    /// Who is dialed when: queue, static list, penalty box, dial slots.
    pub(crate) policy: DialPolicy,
    /// Live probes, one per open TCP connection.
    pub(crate) probes: BTreeMap<ConnId, Probe>,
    pub(crate) poll_armed: bool,
    pub(crate) dial_armed: bool,
    /// The crawler's own view of Mainnet (for STATUS + serving stray
    /// header requests).
    pub(crate) chain: Chain,
    /// Accumulated structured log.
    pub log: CrawlLog,
}

impl NodeFinder {
    /// Build a crawler.
    pub fn new(key: SecretKey, config: CrawlerConfig, bootstrap: Vec<NodeRecord>) -> NodeFinder {
        NodeFinder {
            key,
            policy: DialPolicy::new(&config),
            config,
            bootstrap,
            disc: None,
            probes: BTreeMap::new(),
            poll_armed: false,
            dial_armed: false,
            chain: Chain::new(ChainConfig::mainnet(), SNAPSHOT_HEAD),
            log: CrawlLog::default(),
        }
    }

    /// The crawler's node ID.
    pub fn node_id(&self) -> NodeId {
        NodeId::from_secret_key(&self.key)
    }

    // The due-check cadence must be much finer than the redial interval or
    // quantization silently stretches the effective period (the paper's
    // 1s tick vs 30min interval has a 1/1800 ratio; keep ours comparable).
    pub(crate) fn static_tick_ms(&self) -> u64 {
        (self.config.static_redial_interval_ms / 8).clamp(200, 1_000)
    }

    // The sweep must be finer than the shortest stage timeout or stage
    // deadlines quantize up to the sweep period.
    pub(crate) fn sweep_tick_ms(&self) -> u64 {
        let min_stage = CONNECT_TIMEOUT_MS
            .min(HANDSHAKE_TIMEOUT_MS)
            .min(HELLO_TIMEOUT_MS)
            .min(STATUS_TIMEOUT_MS);
        (min_stage / 2).clamp(500, self.config.probe_timeout_ms / 2)
    }

    /// How many endpoints have ever entered the penalty box (diagnostics).
    pub fn penalty_boxed_total(&self) -> u64 {
        self.policy.boxed_total()
    }

    /// Currently-open connections (diagnostics; the hold-connections
    /// ablation watches this grow without bound).
    pub fn open_conns(&self) -> usize {
        self.probes.len()
    }

    /// Dial-slot releases that found no slot to release (diagnostics;
    /// zero in a correct crawler — asserted by the tier-1 suites).
    pub fn dialing_underflows(&self) -> u64 {
        self.policy.underflows()
    }

    /// Deepest the dial queue has been (diagnostics).
    pub fn dial_queue_high_water(&self) -> usize {
        self.policy.high_water()
    }

    pub(crate) fn hello(&self, addr: HostAddr) -> Hello {
        Hello {
            p2p_version: P2P_VERSION,
            // NodeFinder is Geth-1.7.3-based (§4).
            client_id: "NodeFinder/Geth-v1.7.3/linux-amd64/go1.9".into(),
            capabilities: vec![Capability::eth62(), Capability::eth63()],
            listen_port: addr.port,
            node_id: self.node_id(),
        }
    }

    fn our_status(&self) -> Status {
        Status {
            protocol_version: 63,
            network_id: self.chain.config.network_id,
            total_difficulty: self.chain.total_difficulty(),
            best_hash: self.chain.best_hash(),
            genesis_hash: self.chain.config.genesis_hash,
        }
    }

    fn event(&mut self, ts: u64, node_id: NodeId, ip: std::net::Ipv4Addr, kind: DialEventKind) {
        self.log.events.push(DialEvent {
            instance: self.config.instance,
            ts_ms: ts,
            node_id,
            ip,
            kind,
        });
    }

    fn send_disc(&mut self, ctx: &mut Ctx, outgoing: Vec<discv4::Outgoing>) {
        for o in outgoing {
            ctx.send_udp(HostAddr::new(o.to.ip, o.to.udp_port), o.datagram);
        }
        if !self.poll_armed && self.disc.as_ref().map(|d| d.has_pending()).unwrap_or(false) {
            self.poll_armed = true;
            ctx.set_timer(POLL_DELAY_MS, T_POLL);
        }
    }

    /// Pipeline stage 1, discover: every usable sighting *enters* the
    /// stage; it *completes* by landing in the policy's dial queue. A full
    /// queue is backpressure on the dial stage.
    fn drain_disc_events(&mut self, ctx: &mut Ctx) {
        let Some(disc) = self.disc.as_mut() else {
            return;
        };
        let events = disc.take_events();
        let own = self.node_id();
        for ev in events {
            let record = match ev {
                DiscEvent::NodeSeen(r) | DiscEvent::NodeVerified(r) => r,
                DiscEvent::LookupDone { .. } => continue,
            };
            if record.id == own || record.endpoint.tcp_port == 0 {
                continue;
            }
            self.event(
                ctx.now_ms,
                record.id,
                record.endpoint.ip,
                DialEventKind::DiscoverySighting,
            );
            obs::counter_add("crawler.funnel.sightings", 1);
            Stage::Discover.note_entered();
            match self.policy.on_sighting(record, ctx.now_ms) {
                Sighting::Queued => Stage::Discover.note_completed(),
                Sighting::Rejected => obs::counter_add("crawler.stage.dial.backpressure", 1),
                Sighting::Ignored => {}
            }
        }
        self.arm_dial(ctx);
    }

    /// Arm `T_DIAL` for the policy's next dial wake, unless it is armed.
    fn arm_dial(&mut self, ctx: &mut Ctx) {
        if self.dial_armed {
            return;
        }
        if let Some(delay_ms) = self.policy.next_dial_wake(ctx.now_ms) {
            self.dial_armed = true;
            ctx.set_timer(delay_ms, T_DIAL);
        }
    }

    /// Pipeline stage 2, dial: open the TCP connection the policy asked
    /// for and track it as a probe. The stage completes when the
    /// transport reports `Connected`.
    fn dial(&mut self, ctx: &mut Ctx, record: NodeRecord, conn_type: ConnType) {
        let (kind, counter) = match conn_type {
            ConnType::DynamicDial => (DialEventKind::DynamicDialAttempt, "crawler.dial.dynamic"),
            ConnType::StaticDial => (DialEventKind::StaticDialAttempt, "crawler.dial.static"),
            ConnType::Incoming => unreachable!("incoming is not dialed"),
        };
        self.event(ctx.now_ms, record.id, record.endpoint.ip, kind);
        obs::counter_add(counter, 1);
        Stage::Dial.note_entered();
        let peer = HostAddr::new(record.endpoint.ip, record.endpoint.tcp_port);
        let conn = ctx.tcp_connect(peer);
        let hello = self.hello(ctx.local_addr());
        let pc = PeerConn::dialing(conn, record.id, hello, ctx.now_ms);
        let deadline_ms = ctx.now_ms + CONNECT_TIMEOUT_MS;
        let probe = Probe::new(
            pc,
            conn_type,
            self.config.instance,
            Some(record.id),
            peer,
            ctx.now_ms,
            deadline_ms,
        );
        self.probes.insert(conn, probe);
        obs::gauge_set("crawler.dialing", self.policy.dialing() as u64);
        obs::gauge_max("crawler.open_conns_peak", self.probes.len() as u64);
    }

    /// Pipeline stage 5, ingest: a probe finished (or died) — close the
    /// socket, tell the policy, and finalize the log entry.
    fn finish_probe(&mut self, ctx: &mut Ctx, conn: ConnId, polite: bool) {
        // `remove` is the single hand-off out of the probe table, so a
        // second finish on the same conn is a no-op (and in particular
        // cannot release a dial slot twice).
        let Some(mut probe) = self.probes.remove(&conn) else {
            return;
        };
        Stage::Ingest.note_entered();
        if polite && probe.pc.is_active() {
            send(
                ctx,
                conn,
                probe.pc.send_disconnect(DisconnectReason::Requested),
            );
        }
        ctx.tcp_close(conn);
        probe.record.duration_ms = ctx.now_ms.saturating_sub(probe.record.ts_ms);
        let responded = probe.record.hello.is_some()
            || matches!(probe.record.outcome, ConnOutcome::RemoteDisconnect(_));
        // Live dial-funnel counters (mirroring DataStore::dial_funnel) and
        // a per-probe flight-recorder event. `is_enabled` skips the field
        // allocations when no recorder is installed.
        if obs::is_enabled() {
            if responded && probe.conn_type == ConnType::DynamicDial {
                obs::counter_add("crawler.funnel.responded", 1);
            }
            if probe.record.hello.is_some() {
                obs::counter_add("crawler.funnel.hello", 1);
            }
            if probe.record.status.is_some() {
                obs::counter_add("crawler.funnel.status", 1);
            }
            if let Some(class) = probe.record.failure {
                obs::counter_add(&format!("crawler.failure.{}", class.label()), 1);
            }
            obs::event(
                "crawler.probe.done",
                &[
                    (
                        "conn_type",
                        obs::Value::Str(
                            match probe.conn_type {
                                ConnType::DynamicDial => "dynamic",
                                ConnType::StaticDial => "static",
                                ConnType::Incoming => "incoming",
                            }
                            .to_string(),
                        ),
                    ),
                    ("responded", obs::Value::Bool(responded)),
                    ("dur_ms", obs::Value::U64(probe.record.duration_ms)),
                    ("conn", obs::Value::U64(conn as u64)),
                ],
            );
        }
        let record = probe
            .record
            .node_id
            .map(|id| NodeRecord::new(id, Endpoint::new(probe.record.ip, probe.record.port)));
        // Fig 7 counts the nodes that answer a *dynamic* dial.
        if let Some(r) = record.filter(|_| responded && probe.conn_type == ConnType::DynamicDial) {
            self.event(
                ctx.now_ms,
                r.id,
                r.endpoint.ip,
                DialEventKind::DialResponded,
            );
        }
        let now = ctx.now_ms;
        self.policy
            .on_result(record, probe.conn_type, responded, now, ctx.rng());
        // A failure's retry must fire even if discovery goes quiet.
        self.arm_dial(ctx);
        self.log.conns.push(probe.record);
        Stage::Ingest.note_completed();
        obs::gauge_set("crawler.dialing", self.policy.dialing() as u64);
        obs::gauge_set(
            "crawler.penalty.tracked",
            self.policy.penalty_tracked() as u64,
        );
        obs::gauge_set("crawler.penalty.boxed_total", self.policy.boxed_total());
        obs::gauge_set("crawler.static_list", self.policy.static_len() as u64);
    }

    fn handle_wire_event(&mut self, ctx: &mut Ctx, conn: ConnId, event: WireEvent) {
        if !self.probes.contains_key(&conn) {
            return;
        }
        // Stage transitions are recorded up front (the probe's existence
        // is already established): HELLO completes the handshake stage,
        // and an eth STATUS going out / coming back brackets the status
        // stage.
        match &event {
            WireEvent::Hello { shared, .. } => {
                Stage::Handshake.note_completed();
                if shared.iter().any(|c| c.name == "eth") {
                    Stage::Status.note_entered();
                }
            }
            WireEvent::Eth(EthMessage::Status(_)) => {
                Stage::Status.note_completed();
            }
            _ => {}
        }
        let rtt = ctx.rtt_ms(conn);
        let ours = self.our_status();
        let chain = self.chain.clone();
        let Some(probe) = self.probes.get_mut(&conn) else {
            return;
        };
        if rtt > 0 {
            probe.record.latency_ms = rtt;
        }
        match event {
            WireEvent::RlpxEstablished { peer_id } => {
                probe.record.node_id = Some(peer_id);
                probe.record.outcome = ConnOutcome::HandshakeFailed;
                // Next stage: the peer's HELLO.
                probe.next_stage(
                    "crawler.stage.auth_ms",
                    ctx.now_ms,
                    ctx.now_ms + HELLO_TIMEOUT_MS,
                );
            }
            WireEvent::Hello { hello, shared } => {
                probe.record.hello = Some(HelloInfo {
                    client_id: hello.client_id.clone(),
                    capabilities: hello.capabilities.iter().map(|c| c.to_string()).collect(),
                    p2p_version: hello.p2p_version,
                });
                probe.record.outcome = ConnOutcome::HelloOnly;
                // Next stage: eth STATUS.
                probe.next_stage(
                    "crawler.stage.hello_ms",
                    ctx.now_ms,
                    ctx.now_ms + STATUS_TIMEOUT_MS,
                );
                if shared.iter().any(|c| c.name == "eth") {
                    // Send our STATUS; theirs should follow.
                    let status = EthMessage::Status(ours.clone());
                    send(ctx, conn, probe.pc.send_eth(&status));
                } else if !self.config.hold_connections {
                    // Non-eth peer: HELLO is all we wanted.
                    self.finish_probe(ctx, conn, true);
                }
            }
            WireEvent::Eth(EthMessage::Status(st)) => {
                probe.record.status = Some(StatusInfo {
                    protocol_version: st.protocol_version,
                    network_id: st.network_id,
                    total_difficulty: st.total_difficulty,
                    best_hash: st.best_hash,
                    genesis_hash: st.genesis_hash,
                });
                probe.record.outcome = ConnOutcome::StatusCollected;
                probe.next_stage("crawler.stage.status_ms", ctx.now_ms, probe.deadline_ms);
                // `ours` computed above, before borrowing the probe.
                if ours.compatible(&st) && self.config.dao_check {
                    // Mainnet-or-Classic: run the DAO check.
                    probe.awaiting_dao = true;
                    // Next stage: the DAO-fork headers.
                    probe.deadline_ms = ctx.now_ms + STATUS_TIMEOUT_MS;
                    let req = EthMessage::GetBlockHeaders {
                        start: BlockId::Number(DAO_FORK_BLOCK),
                        max_headers: 1,
                        skip: 0,
                        reverse: false,
                    };
                    send(ctx, conn, probe.pc.send_eth(&req));
                } else if !self.config.hold_connections {
                    self.finish_probe(ctx, conn, true);
                }
            }
            WireEvent::Eth(EthMessage::BlockHeaders(headers)) => {
                if probe.awaiting_dao {
                    probe.record.dao_fork = headers
                        .iter()
                        .find(|h| h.number == DAO_FORK_BLOCK)
                        .map(|h| h.extra_data == DAO_FORK_EXTRA);
                    probe.record.outcome = ConnOutcome::DaoChecked;
                    if !self.config.hold_connections {
                        self.finish_probe(ctx, conn, true);
                    }
                }
            }
            WireEvent::Eth(EthMessage::GetBlockHeaders {
                start,
                max_headers,
                skip,
                reverse,
            }) => {
                // Behave like a normal peer while the probe runs.
                let start_num = match start {
                    BlockId::Number(n) => Some(n),
                    BlockId::Hash(h) if h == chain.best_hash() => Some(chain.head),
                    BlockId::Hash(_) => None,
                };
                let headers = match start_num {
                    Some(n) => chain.headers(n, max_headers as usize, skip, reverse),
                    None => Vec::new(),
                };
                send(
                    ctx,
                    conn,
                    probe.pc.send_eth(&EthMessage::BlockHeaders(headers)),
                );
            }
            WireEvent::Eth(_) => {
                // TRANSACTIONS and friends: tolerated, ignored.
            }
            WireEvent::OtherSubprotocol { .. } => {}
            WireEvent::Ping => {
                send(ctx, conn, probe.pc.flush_session());
            }
            WireEvent::Pong => {}
            WireEvent::Disconnected(reason) => {
                probe.record.outcome = ConnOutcome::RemoteDisconnect(reason.label().to_string());
                self.finish_probe(ctx, conn, false);
            }
            WireEvent::ProtocolError(_) => {
                probe.record.failure = Some(FailureClass::ProtocolError);
                self.finish_probe(ctx, conn, false);
            }
        }
    }
}

impl Host for NodeFinder {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        let addr = ctx.local_addr();
        let endpoint = Endpoint::new(addr.ip, addr.port);
        let mut disc = Discv4::new(
            self.key,
            endpoint,
            DiscConfig {
                metric: Metric::GethLog2,
                ..DiscConfig::default()
            },
        );
        let mut outgoing = Vec::new();
        let now = ctx.now_ms;
        for b in self.bootstrap.clone() {
            if b.id != self.node_id() {
                outgoing.push(disc.ping(b, now));
                // Bootstraps are static-dialed like anyone else (§4).
                self.policy.add_bootstrap(b, now);
            }
        }
        self.disc = Some(disc);
        self.send_disc(ctx, outgoing);
        // Record the stage deadlines and scheduler cadences as gauges so
        // every exported snapshot is self-describing.
        obs::gauge_set("crawler.cfg.connect_timeout_ms", CONNECT_TIMEOUT_MS);
        obs::gauge_set("crawler.cfg.handshake_timeout_ms", HANDSHAKE_TIMEOUT_MS);
        obs::gauge_set("crawler.cfg.hello_timeout_ms", HELLO_TIMEOUT_MS);
        obs::gauge_set("crawler.cfg.status_timeout_ms", STATUS_TIMEOUT_MS);
        obs::gauge_set("crawler.cfg.probe_timeout_ms", self.config.probe_timeout_ms);
        obs::gauge_set("crawler.cfg.poll_delay_ms", POLL_DELAY_MS);
        obs::gauge_set("crawler.cfg.dial_tick_ms", DIAL_TICK_MS);
        obs::gauge_set("crawler.cfg.dial_queue_cap", DIAL_QUEUE_CAP as u64);
        ctx.set_timer(self.config.lookup_interval_ms, T_LOOKUP);
        ctx.set_timer(self.static_tick_ms(), T_STATIC);
        ctx.set_timer(self.sweep_tick_ms(), T_SWEEP);
    }

    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        let Some(disc) = self.disc.as_mut() else {
            return;
        };
        let outgoing = disc.on_datagram(Endpoint::new(from.ip, from.port), datagram, ctx.now_ms);
        self.send_disc(ctx, outgoing);
        self.drain_disc_events(ctx);
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn, .. } => {
                let key = self.key;
                let Some(probe) = self.probes.get_mut(&conn) else {
                    return;
                };
                // Pipeline: the dial stage completed; the handshake stage
                // (RLPx auth + HELLO) begins.
                Stage::Dial.note_completed();
                Stage::Handshake.note_entered();
                probe.record.latency_ms = ctx.rtt_ms(conn);
                probe.connected = true;
                let deadline_ms = ctx.now_ms + HANDSHAKE_TIMEOUT_MS;
                probe.next_stage("crawler.stage.connect_ms", ctx.now_ms, deadline_ms);
                let frames = probe.pc.on_tcp_connected(ctx.rng(), &key);
                let dead = probe.pc.is_dead();
                send(ctx, conn, frames);
                if dead {
                    self.finish_probe(ctx, conn, false);
                }
            }
            TcpEvent::ConnectFailed { conn } => {
                if let Some(probe) = self.probes.get_mut(&conn) {
                    probe.record.failure = Some(FailureClass::ConnectFailed);
                }
                self.finish_probe(ctx, conn, false);
            }
            TcpEvent::Incoming { conn, peer } => {
                if self.probes.contains_key(&conn) {
                    // Self-connection guard (shouldn't occur given the dial
                    // filter, but cheap to be safe).
                    self.finish_probe(ctx, conn, false);
                    return;
                }
                // Accept everything; never Too many peers (§4). An
                // incoming conn enters the pipeline at the handshake stage
                // (no discover/dial legs).
                Stage::Handshake.note_entered();
                let hello = self.hello(ctx.local_addr());
                let pc = PeerConn::accepted(conn, hello, ctx.now_ms);
                let deadline_ms = ctx.now_ms + HANDSHAKE_TIMEOUT_MS;
                let probe = Probe::new(
                    pc,
                    ConnType::Incoming,
                    self.config.instance,
                    None,
                    peer,
                    ctx.now_ms,
                    deadline_ms,
                );
                self.probes.insert(conn, probe);
                obs::counter_add("crawler.conn.incoming", 1);
                obs::gauge_max("crawler.open_conns_peak", self.probes.len() as u64);
            }
            TcpEvent::Data { conn, bytes } => {
                let key = self.key;
                let Some(probe) = self.probes.get_mut(&conn) else {
                    return;
                };
                let (events, out) = probe.pc.on_data(ctx.rng(), &key, &bytes);
                send(ctx, conn, out);
                for e in events {
                    self.handle_wire_event(ctx, conn, e);
                }
                if self.probes.get(&conn).is_some_and(|p| p.pc.is_dead()) {
                    self.finish_probe(ctx, conn, false);
                }
            }
            TcpEvent::Closed { conn } => {
                if let Some(probe) = self.probes.get_mut(&conn) {
                    // The remote (or a mid-stream fault) tore the stream
                    // down before completing DEVp2p.
                    if probe.record.hello.is_none()
                        && !matches!(probe.record.outcome, ConnOutcome::RemoteDisconnect(_))
                    {
                        probe
                            .record
                            .failure
                            .get_or_insert(FailureClass::RemoteReset);
                    }
                }
                self.finish_probe(ctx, conn, false);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token {
            T_LOOKUP => {
                // NodeFinder discovers continuously (§4 modification 1).
                if let Some(disc) = self.disc.as_mut() {
                    let mut outgoing = disc.poll(ctx.now_ms);
                    if !disc.lookup_in_progress() {
                        let mut target = [0u8; 64];
                        ctx.rng().fill(&mut target[..]);
                        outgoing.extend(disc.start_lookup(NodeId(target), ctx.now_ms));
                        // one Fig 5 "discovery attempt"
                        let own = self.node_id();
                        let ip = ctx.local_addr().ip;
                        self.event(ctx.now_ms, own, ip, DialEventKind::DiscoveryAttempt);
                    }
                    self.send_disc(ctx, outgoing);
                    self.drain_disc_events(ctx);
                }
                ctx.set_timer(self.config.lookup_interval_ms, T_LOOKUP);
            }
            T_DIAL => {
                self.dial_armed = false;
                for (record, conn_type) in self.policy.on_dial_tick(ctx.now_ms, ctx.local_addr()) {
                    self.dial(ctx, record, conn_type);
                }
                self.arm_dial(ctx);
            }
            T_STATIC => {
                let now = ctx.now_ms;
                // Campaign-progress gauges: how much of the discovered
                // population is fresh (seen within the 24h window) vs
                // stale, plus the dial queue's state. Sampled here because
                // the static tick is the crawler's steady heartbeat.
                if obs::is_enabled() {
                    let (seen, fresh) = self.policy.seen_fresh(now);
                    obs::gauge_set("crawler.nodes_fresh", fresh as u64);
                    obs::gauge_set("crawler.nodes_stale", (seen - fresh) as u64);
                    obs::gauge_set("crawler.dial_queue.depth", self.policy.queue_len() as u64);
                    obs::gauge_set(
                        "crawler.dial_queue.high_water",
                        self.policy.high_water() as u64,
                    );
                }
                for (record, conn_type) in self.policy.on_static_tick(now, ctx.local_addr()) {
                    self.dial(ctx, record, conn_type);
                }
                ctx.set_timer(self.static_tick_ms(), T_STATIC);
            }
            T_POLL => {
                self.poll_armed = false;
                if let Some(disc) = self.disc.as_mut() {
                    let outgoing = disc.poll(ctx.now_ms);
                    self.send_disc(ctx, outgoing);
                    self.drain_disc_events(ctx);
                }
            }
            T_SWEEP => {
                let now = ctx.now_ms;
                // Probes are reaped in numeric ConnId order. Both
                // deadlines are half-open (`window_elapsed` / `>=`): a
                // probe is overdue at *exactly* its deadline instant.
                let expired: Vec<(ConnId, FailureClass)> = self
                    .probes
                    .iter()
                    // In hold mode, active sessions are kept forever;
                    // only stuck handshakes are reaped.
                    .filter(|(_, p)| !(self.config.hold_connections && p.pc.is_active()))
                    .filter_map(|(c, p)| Some((*c, p.overdue(now, self.config.probe_timeout_ms)?)))
                    .collect();
                for (conn, class) in expired {
                    if let Some(p) = self.probes.get_mut(&conn) {
                        p.record.failure.get_or_insert(class);
                    }
                    self.finish_probe(ctx, conn, true);
                }
                ctx.set_timer(self.sweep_tick_ms(), T_SWEEP);
            }
            _ => {}
        }
    }

    fn on_stop(&mut self, ctx: &mut Ctx) {
        // Flush open probes with Open outcome so nothing is lost, in
        // numeric ConnId order.
        let open: Vec<ConnId> = self.probes.keys().copied().collect();
        for conn in open {
            if let Some(p) = self.probes.get_mut(&conn) {
                if p.record.hello.is_none() {
                    p.record.outcome = ConnOutcome::Open;
                }
            }
            self.finish_probe(ctx, conn, false);
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.encode_state(w);
        Ok(())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.apply_state(bytes)
    }
}

/// Send `frames` on `conn`, in order.
fn send(ctx: &mut Ctx, conn: ConnId, frames: Vec<Vec<u8>>) {
    for f in frames {
        ctx.tcp_send(conn, f);
    }
}
