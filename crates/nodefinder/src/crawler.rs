//! The NodeFinder crawler host (§4), as a thin pipeline driver.
//!
//! The crawl is organized as five explicit stages — discover → dial →
//! handshake → status → ingest (see `stages`) — and this module is only
//! the driver that moves records between them: discovery sightings feed
//! the bounded dial queue, the dial scheduler turns queue entries into
//! probes owned by the `session` manager, wire events advance each probe
//! through handshake and status, and `finish_probe` ingests the result
//! into the structured log. Checkpoint/restore of the whole pipeline
//! lives in `checkpoint`.

use crate::backoff::BackoffPolicy;
use crate::log::{
    ConnLog, ConnOutcome, ConnType, CrawlLog, DialEvent, DialEventKind, FailureClass, HelloInfo,
    StatusInfo,
};
use crate::session::{Probe, SessionManager};
use crate::stages::{window_elapsed, BoundedQueue, Stage};
use devp2p::{Capability, DisconnectReason, Hello, P2P_VERSION};
use discv4::{Config as DiscConfig, Discv4, Event as DiscEvent};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use ethpop::wire::{PeerConn, WireEvent};
use ethwire::{
    BlockId, Chain, ChainConfig, EthMessage, Status, DAO_FORK_BLOCK, DAO_FORK_EXTRA, SNAPSHOT_HEAD,
};
use kad::Metric;
use netsim::{ConnId, Ctx, Host, HostAddr, TcpEvent};
use obs::snap::{SnapError, SnapWriter};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Hard cap on the discover→dial hand-off queue. A full queue rejects new
/// sightings (counted as `crawler.stage.dial.backpressure`) rather than
/// growing without bound; the endpoint is re-queued on its next sighting.
pub(crate) const DIAL_QUEUE_CAP: usize = 4_096;
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
/// Dial-scheduler tick: queue drain cadence and the minimum delay before
/// a retry timer fires.
const DIAL_TICK_MS: u64 = 500;
/// Delay before the first static dial of a bootstrap node.
const BOOTSTRAP_DIAL_DELAY_MS: u64 = 1_000;

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

#[derive(Debug)]
pub(crate) struct StaticEntry {
    pub(crate) record: NodeRecord,
    pub(crate) next_dial_ms: u64,
    pub(crate) last_success_ms: u64,
}

obs::snap_struct!(StaticEntry {
    record,
    next_dial_ms,
    last_success_ms
});

/// The crawler. One instance per simulated measurement machine.
#[derive(Debug)]
pub struct NodeFinder {
    pub(crate) key: SecretKey,
    pub(crate) config: CrawlerConfig,
    pub(crate) bootstrap: Vec<NodeRecord>,
    pub(crate) disc: Option<Discv4>,
    /// Live probe sessions, dial-slot accounting, and the penalty box.
    pub(crate) sessions: SessionManager,
    /// Discover→dial hand-off: sighted-but-not-yet-dialed endpoints.
    pub(crate) dial_queue: BoundedQueue<NodeRecord>,
    pub(crate) queued: BTreeSet<NodeId>,
    pub(crate) static_nodes: BTreeMap<NodeId, StaticEntry>,
    /// Last sighting/contact time per distinct node ever seen — feeds
    /// the fresh/stale campaign gauges (`crawler.nodes_fresh`/`_stale`,
    /// freshness window = `stale_after_ms`, the paper's 24h rule).
    pub(crate) seen: BTreeMap<NodeId, u64>,
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
        let sessions = SessionManager::new(
            config.backoff.clone(),
            config.penalty_threshold,
            config.penalty_box_ms,
        );
        let dial_queue = BoundedQueue::new(DIAL_QUEUE_CAP);
        NodeFinder {
            key,
            config,
            bootstrap,
            disc: None,
            sessions,
            dial_queue,
            queued: BTreeSet::new(),
            static_nodes: BTreeMap::new(),
            seen: BTreeMap::new(),
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

    /// Static-list size (diagnostics).
    pub fn static_list_len(&self) -> usize {
        self.static_nodes.len()
    }

    /// How many endpoints have ever entered the penalty box (diagnostics).
    pub fn penalty_boxed_total(&self) -> u64 {
        self.sessions.penalty.boxed_total()
    }

    /// Currently-open connections (diagnostics; the hold-connections
    /// ablation watches this grow without bound).
    pub fn open_conns(&self) -> usize {
        self.sessions.open_conns()
    }

    /// Dial-slot releases that found no slot to release (diagnostics;
    /// zero in a correct crawler — asserted by the tier-1 suites).
    pub fn dialing_underflows(&self) -> u64 {
        self.sessions.dialing_underflows()
    }

    /// Deepest the dial queue has been (diagnostics).
    pub fn dial_queue_high_water(&self) -> usize {
        self.dial_queue.high_water()
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
    /// stage; it *completes* by landing in the dial queue. A full queue
    /// is backpressure on the dial stage — the sighting is dropped (not
    /// marked queued, so a later sighting retries).
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
            self.seen.insert(record.id, ctx.now_ms);
            // Endpoints in backoff / the penalty box are sighted but not
            // queued — the retry scheduler owns them until they recover.
            if self.sessions.penalty.is_blocked(&record.id, ctx.now_ms) {
                continue;
            }
            // New nodes go to the dial queue unless already tracked.
            if !self.static_nodes.contains_key(&record.id) && self.queued.insert(record.id) {
                match self.dial_queue.push_back(record) {
                    Ok(()) => Stage::Discover.note_completed(),
                    Err(rejected) => {
                        self.queued.remove(&rejected.id);
                        Stage::Dial.note_backpressure();
                    }
                }
            }
        }
        if !self.dial_armed && !self.dial_queue.is_empty() {
            self.dial_armed = true;
            ctx.set_timer(DIAL_TICK_MS, T_DIAL);
        }
    }

    /// Pipeline stage 2, dial: open the TCP connection and hand the new
    /// probe to the session manager. The stage completes when the
    /// transport reports `Connected`.
    fn dial(&mut self, ctx: &mut Ctx, record: NodeRecord, conn_type: ConnType) {
        let local = ctx.local_addr();
        if record.endpoint.ip == local.ip && record.endpoint.tcp_port == local.port {
            return; // never dial our own address
        }
        let kind = match conn_type {
            ConnType::DynamicDial => DialEventKind::DynamicDialAttempt,
            ConnType::StaticDial => DialEventKind::StaticDialAttempt,
            ConnType::Incoming => unreachable!("incoming is not dialed"),
        };
        self.event(ctx.now_ms, record.id, record.endpoint.ip, kind);
        obs::counter_add(
            match conn_type {
                ConnType::StaticDial => "crawler.dial.static",
                _ => "crawler.dial.dynamic",
            },
            1,
        );
        Stage::Dial.note_entered();
        let conn = ctx.tcp_connect(HostAddr::new(record.endpoint.ip, record.endpoint.tcp_port));
        let hello = self.hello(ctx.local_addr());
        let record_log = ConnLog {
            instance: self.config.instance,
            ts_ms: ctx.now_ms,
            node_id: Some(record.id),
            ip: record.endpoint.ip,
            port: record.endpoint.tcp_port,
            conn_type,
            latency_ms: 0,
            duration_ms: 0,
            hello: None,
            status: None,
            dao_fork: None,
            outcome: ConnOutcome::DialFailed,
            failure: None,
        };
        self.sessions.conns.insert(
            conn,
            Probe {
                pc: PeerConn::dialing(conn, record.id, hello, ctx.now_ms),
                conn_type,
                record: record_log,
                awaiting_dao: false,
                connected: false,
                deadline_ms: ctx.now_ms + CONNECT_TIMEOUT_MS,
                stage_start_ms: ctx.now_ms,
            },
        );
        if conn_type == ConnType::DynamicDial {
            self.sessions.begin_dial();
        }
        obs::gauge_set("crawler.dialing", self.sessions.dialing() as u64);
        obs::gauge_max("crawler.open_conns_peak", self.sessions.open_conns() as u64);
    }

    /// Pipeline stage 5, ingest: a probe finished (or died) — close the
    /// socket, finalize the log entry, update the static list.
    fn finish_probe(&mut self, ctx: &mut Ctx, conn: ConnId, polite: bool) {
        let Some(mut probe) = self.sessions.conns.remove(&conn) else {
            // Already finalized: `remove` is the single hand-off out of
            // the session table, so a second finish on the same conn is a
            // no-op (and in particular cannot double-release a dial slot).
            return;
        };
        Stage::Ingest.note_entered();
        if probe.conn_type == ConnType::DynamicDial {
            // Sole dial-slot release site. `end_dial` is checked: an
            // underflow is exported as `crawler.dialing_underflow`, never
            // silently clamped.
            self.sessions.end_dial();
        }
        if polite && probe.pc.is_active() {
            for f in probe.pc.send_disconnect(DisconnectReason::Requested) {
                ctx.tcp_send(conn, f);
            }
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
        if let Some(id) = probe.record.node_id {
            if responded {
                self.seen.insert(id, ctx.now_ms);
            }
            // Only *dials* that get an answer prove reachability; incoming
            // conns say nothing about whether the node accepts inbound TCP.
            // Fig 7 counts nodes responding to *dynamic* dials.
            if responded && probe.conn_type == ConnType::DynamicDial {
                self.event(
                    ctx.now_ms,
                    id,
                    probe.record.ip,
                    DialEventKind::DialResponded,
                );
            }
            let now = ctx.now_ms;
            let interval = self.config.static_redial_interval_ms;
            if responded {
                // A DEVp2p answer wipes the endpoint's failure slate and
                // (re)joins it to the StaticNodes list.
                self.sessions.penalty.record_success(&id);
                let record = NodeRecord::new(id, Endpoint::new(probe.record.ip, probe.record.port));
                self.static_nodes.insert(
                    id,
                    StaticEntry {
                        record,
                        next_dial_ms: now + interval,
                        last_success_ms: now,
                    },
                );
            } else if probe.conn_type != ConnType::Incoming {
                // A failed outbound attempt backs the endpoint off (and
                // eventually boxes it). It does NOT refresh last_success,
                // so dead static entries actually go stale.
                let record = NodeRecord::new(id, Endpoint::new(probe.record.ip, probe.record.port));
                self.sessions.penalty.record_failure(record, now, ctx.rng());
                // The attempt still pushes the next static re-dial back
                // (§5.2's "slightly fewer than 48/day" effect).
                if let Some(entry) = self.static_nodes.get_mut(&id) {
                    entry.next_dial_ms = now + interval;
                }
                // Make sure the retry actually fires even if discovery
                // goes quiet.
                if !self.dial_armed {
                    if let Some(due) = self.sessions.penalty.next_due_ms() {
                        self.dial_armed = true;
                        ctx.set_timer(due.saturating_sub(now).max(DIAL_TICK_MS), T_DIAL);
                    }
                }
            }
            self.queued.remove(&id);
        }
        self.log.conns.push(probe.record);
        Stage::Ingest.note_completed();
        obs::gauge_set("crawler.dialing", self.sessions.dialing() as u64);
        obs::gauge_set(
            "crawler.penalty.tracked",
            self.sessions.penalty.tracked() as u64,
        );
        obs::gauge_set(
            "crawler.penalty.boxed_total",
            self.sessions.penalty.boxed_total(),
        );
        obs::gauge_set("crawler.static_list", self.static_nodes.len() as u64);
    }

    fn handle_wire_event(&mut self, ctx: &mut Ctx, conn: ConnId, event: WireEvent) {
        if !self.sessions.conns.contains_key(&conn) {
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
        let Some(probe) = self.sessions.conns.get_mut(&conn) else {
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
                probe.deadline_ms = ctx.now_ms + HELLO_TIMEOUT_MS;
                obs::span(
                    "crawler.stage.auth_ms",
                    probe.stage_start_ms,
                    &[("conn", obs::Value::U64(conn as u64))],
                );
                probe.stage_start_ms = ctx.now_ms;
            }
            WireEvent::Hello { hello, shared } => {
                probe.record.hello = Some(HelloInfo {
                    client_id: hello.client_id.clone(),
                    capabilities: hello.capabilities.iter().map(|c| c.to_string()).collect(),
                    p2p_version: hello.p2p_version,
                });
                probe.record.outcome = ConnOutcome::HelloOnly;
                // Next stage: eth STATUS.
                probe.deadline_ms = ctx.now_ms + STATUS_TIMEOUT_MS;
                obs::span(
                    "crawler.stage.hello_ms",
                    probe.stage_start_ms,
                    &[("conn", obs::Value::U64(conn as u64))],
                );
                probe.stage_start_ms = ctx.now_ms;
                if shared.iter().any(|c| c.name == "eth") {
                    // Send our STATUS; theirs should follow.
                    let status = EthMessage::Status(ours.clone());
                    let frames = probe.pc.send_eth(&status);
                    for f in frames {
                        ctx.tcp_send(conn, f);
                    }
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
                obs::span(
                    "crawler.stage.status_ms",
                    probe.stage_start_ms,
                    &[("conn", obs::Value::U64(conn as u64))],
                );
                probe.stage_start_ms = ctx.now_ms;
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
                    let frames = probe.pc.send_eth(&req);
                    for f in frames {
                        ctx.tcp_send(conn, f);
                    }
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
                let frames = probe.pc.send_eth(&EthMessage::BlockHeaders(headers));
                for f in frames {
                    ctx.tcp_send(conn, f);
                }
            }
            WireEvent::Eth(_) => {
                // TRANSACTIONS and friends: tolerated, ignored.
            }
            WireEvent::OtherSubprotocol { .. } => {}
            WireEvent::Ping => {
                let frames = probe.pc.flush_session();
                for f in frames {
                    ctx.tcp_send(conn, f);
                }
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
        let endpoint = Endpoint {
            ip: addr.ip,
            udp_port: addr.port,
            tcp_port: addr.port,
        };
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
                self.static_nodes.insert(
                    b.id,
                    StaticEntry {
                        record: b,
                        next_dial_ms: now + BOOTSTRAP_DIAL_DELAY_MS,
                        last_success_ms: now,
                    },
                );
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
                // Pipeline: the dial stage completed; the handshake stage
                // (RLPx auth + HELLO) begins.
                if self.sessions.conns.contains_key(&conn) {
                    Stage::Dial.note_completed();
                    Stage::Handshake.note_entered();
                }
                let key = self.key;
                let mut frames = Vec::new();
                if let Some(probe) = self.sessions.conns.get_mut(&conn) {
                    probe.record.latency_ms = ctx.rtt_ms(conn);
                    probe.connected = true;
                    probe.deadline_ms = ctx.now_ms + HANDSHAKE_TIMEOUT_MS;
                    obs::span(
                        "crawler.stage.connect_ms",
                        probe.stage_start_ms,
                        &[("conn", obs::Value::U64(conn as u64))],
                    );
                    probe.stage_start_ms = ctx.now_ms;
                    frames = probe.pc.on_tcp_connected(ctx.rng(), &key);
                }
                for f in frames {
                    ctx.tcp_send(conn, f);
                }
                if self
                    .sessions
                    .conns
                    .get(&conn)
                    .is_some_and(|p| p.pc.is_dead())
                {
                    self.finish_probe(ctx, conn, false);
                }
            }
            TcpEvent::ConnectFailed { conn } => {
                if let Some(probe) = self.sessions.conns.get_mut(&conn) {
                    probe.record.failure = Some(FailureClass::ConnectFailed);
                }
                self.finish_probe(ctx, conn, false);
            }
            TcpEvent::Incoming { conn, peer } => {
                if self.sessions.conns.contains_key(&conn) {
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
                let record_log = ConnLog {
                    instance: self.config.instance,
                    ts_ms: ctx.now_ms,
                    node_id: None,
                    ip: peer.ip,
                    port: peer.port,
                    conn_type: ConnType::Incoming,
                    latency_ms: 0,
                    duration_ms: 0,
                    hello: None,
                    status: None,
                    dao_fork: None,
                    outcome: ConnOutcome::HandshakeFailed,
                    failure: None,
                };
                self.sessions.conns.insert(
                    conn,
                    Probe {
                        pc: PeerConn::accepted(conn, hello, ctx.now_ms),
                        conn_type: ConnType::Incoming,
                        record: record_log,
                        awaiting_dao: false,
                        connected: true,
                        deadline_ms: ctx.now_ms + HANDSHAKE_TIMEOUT_MS,
                        stage_start_ms: ctx.now_ms,
                    },
                );
                obs::counter_add("crawler.conn.incoming", 1);
                obs::gauge_max("crawler.open_conns_peak", self.sessions.open_conns() as u64);
            }
            TcpEvent::Data { conn, bytes } => {
                let key = self.key;
                let Some(probe) = self.sessions.conns.get_mut(&conn) else {
                    return;
                };
                let (events, out) = probe.pc.on_data(ctx.rng(), &key, &bytes);
                for f in out {
                    ctx.tcp_send(conn, f);
                }
                for e in events {
                    self.handle_wire_event(ctx, conn, e);
                }
                if self
                    .sessions
                    .conns
                    .get(&conn)
                    .is_some_and(|p| p.pc.is_dead())
                {
                    self.finish_probe(ctx, conn, false);
                }
            }
            TcpEvent::Closed { conn } => {
                if let Some(probe) = self.sessions.conns.get_mut(&conn) {
                    // The remote (or a mid-stream fault) tore the stream
                    // down before completing DEVp2p.
                    if probe.record.hello.is_none()
                        && !matches!(probe.record.outcome, ConnOutcome::RemoteDisconnect(_))
                        && probe.record.failure.is_none()
                    {
                        probe.record.failure = Some(FailureClass::RemoteReset);
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
                let mut outgoing = Vec::new();
                if let Some(disc) = self.disc.as_mut() {
                    outgoing.extend(disc.poll(ctx.now_ms));
                    if !disc.lookup_in_progress() {
                        let mut target = [0u8; 64];
                        ctx.rng().fill(&mut target[..]);
                        let disc = self.disc.as_mut().unwrap();
                        outgoing.extend(disc.start_lookup(NodeId(target), ctx.now_ms));
                        // one Fig 5 "discovery attempt"
                        let own = self.node_id();
                        let ip = ctx.local_addr().ip;
                        self.event(ctx.now_ms, own, ip, DialEventKind::DiscoveryAttempt);
                    }
                }
                self.send_disc(ctx, outgoing);
                self.drain_disc_events(ctx);
                ctx.set_timer(self.config.lookup_interval_ms, T_LOOKUP);
            }
            T_DIAL => {
                self.dial_armed = false;
                let now = ctx.now_ms;
                // Retries whose backoff elapsed go first: they're the
                // oldest work, and the penalty box hands each endpoint out
                // at most once per period.
                let budget = self
                    .config
                    .max_active_dials
                    .saturating_sub(self.sessions.dialing());
                for record in self.sessions.penalty.due_retries(now, budget) {
                    let conn_type = if self.static_nodes.contains_key(&record.id) {
                        ConnType::StaticDial
                    } else {
                        ConnType::DynamicDial
                    };
                    self.dial(ctx, record, conn_type);
                }
                while self.sessions.dialing() < self.config.max_active_dials {
                    let Some(record) = self.dial_queue.pop_front() else {
                        break;
                    };
                    if self.static_nodes.contains_key(&record.id) {
                        self.queued.remove(&record.id);
                        continue;
                    }
                    self.dial(ctx, record, ConnType::DynamicDial);
                }
                if !self.dial_queue.is_empty() {
                    self.dial_armed = true;
                    ctx.set_timer(DIAL_TICK_MS, T_DIAL);
                } else if let Some(due) = self.sessions.penalty.next_due_ms() {
                    self.dial_armed = true;
                    ctx.set_timer(due.saturating_sub(now).max(DIAL_TICK_MS), T_DIAL);
                }
            }
            T_STATIC => {
                let now = ctx.now_ms;
                // Campaign-progress gauges: how much of the discovered
                // population is fresh (seen within the 24h window) vs
                // stale, plus the pipeline's hand-off queue state. Sampled
                // here because the static tick is the crawler's steady
                // heartbeat.
                if obs::is_enabled() {
                    let fresh = self
                        .seen
                        .values()
                        .filter(|&&ts| now.saturating_sub(ts) <= self.config.stale_after_ms)
                        .count() as u64;
                    obs::gauge_set("crawler.nodes_fresh", fresh);
                    obs::gauge_set("crawler.nodes_stale", self.seen.len() as u64 - fresh);
                    obs::gauge_set("crawler.dial_queue.depth", self.dial_queue.len() as u64);
                    obs::gauge_set(
                        "crawler.dial_queue.high_water",
                        self.dial_queue.high_water() as u64,
                    );
                }
                // Remove stale addresses (no TCP success in stale_after).
                // Staleness is half-open: an entry is stale at *exactly*
                // the window edge (`window_elapsed`), matching every other
                // crawler window.
                self.static_nodes.retain(|_, e| {
                    !window_elapsed(now, e.last_success_ms, self.config.stale_after_ms)
                });
                // Fire due static dials, in ascending NodeId order — no
                // concurrency cap (§4), but endpoints in backoff wait for
                // the retry scheduler.
                let mut due = Vec::new();
                for (id, e) in self.static_nodes.iter_mut() {
                    if e.next_dial_ms <= now && !self.sessions.penalty.is_blocked(id, now) {
                        e.next_dial_ms = now + self.config.static_redial_interval_ms;
                        due.push(e.record);
                    }
                }
                for record in due {
                    self.dial(ctx, record, ConnType::StaticDial);
                }
                ctx.set_timer(self.static_tick_ms(), T_STATIC);
            }
            T_POLL => {
                self.poll_armed = false;
                let outgoing = match self.disc.as_mut() {
                    Some(d) => d.poll(ctx.now_ms),
                    None => Vec::new(),
                };
                self.send_disc(ctx, outgoing);
                self.drain_disc_events(ctx);
            }
            T_SWEEP => {
                let now = ctx.now_ms;
                // Probes are reaped in numeric ConnId order. Both
                // deadlines are half-open (`window_elapsed` / `>=`): a
                // probe is overdue at *exactly* its deadline instant.
                let expired: Vec<(ConnId, FailureClass)> = self
                    .sessions
                    .conns
                    .iter()
                    .filter(|(_, p)| {
                        // In hold mode, active sessions are kept forever;
                        // only stuck handshakes are reaped.
                        !(self.config.hold_connections && p.pc.is_active())
                    })
                    .filter_map(|(c, p)| {
                        let over_stage = now >= p.deadline_ms;
                        let over_total =
                            window_elapsed(now, p.record.ts_ms, self.config.probe_timeout_ms);
                        if !(over_stage || over_total) {
                            return None;
                        }
                        // Classify by how far the probe got.
                        let class = if !over_stage {
                            FailureClass::ProbeTimeout
                        } else if !p.connected {
                            FailureClass::ConnectTimeout
                        } else if p.pc.peer_id.is_none() {
                            FailureClass::HandshakeTimeout
                        } else if p.record.hello.is_none() {
                            FailureClass::HelloTimeout
                        } else {
                            FailureClass::StatusTimeout
                        };
                        Some((*c, class))
                    })
                    .collect();
                for (conn, class) in expired {
                    if let Some(p) = self.sessions.conns.get_mut(&conn) {
                        if p.record.failure.is_none() {
                            p.record.failure = Some(class);
                        }
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
        let open: Vec<ConnId> = self.sessions.conns.keys().copied().collect();
        for conn in open {
            if let Some(p) = self.sessions.conns.get_mut(&conn) {
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
