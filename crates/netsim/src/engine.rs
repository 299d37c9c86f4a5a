//! The discrete-event engine: host slots, NAT, the event queue, dispatch
//! and the actions hosts ask for. The connection table is [`conn`], the
//! `PSNP` image [`snapshot`]; what a host sees is [`crate::host`].

pub(crate) mod conn;
mod snapshot;
#[cfg(test)]
mod tests;

use crate::faults::{FaultSchedule, FaultWindow, TcpFate, UdpFate};
use crate::host::{Action, Ctx, Host, HostAddr, HostId, Payload, TcpEvent};
use crate::sched::EventQueue;
use crate::topology::{latency_between, HostMeta};
use conn::{ConnId, ConnInfo, ConnState, ConnTable};
use obs::{snap_enum, snap_struct, MetricId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// Magic prefixing every engine-level world snapshot.
pub const SNAP_MAGIC: [u8; 4] = *b"PSNP";

/// Current engine snapshot format version.
pub const SNAP_VERSION: u8 = 3;

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed (full determinism).
    pub seed: u64,
    /// Probability a UDP datagram is silently lost.
    pub udp_loss: f64,
    /// Extra per-packet latency jitter bound, ms.
    pub jitter_ms: u32,
    /// How long a NAT pinhole stays open after outbound traffic, ms.
    pub nat_window_ms: u64,
    /// Read by nothing: the engine runs one event queue. Kept only
    /// because the frozen `benchmark/` still sets it; the benchmark's
    /// contract-v2 change (ROADMAP item 6) deletes it.
    pub shards: usize,
    /// Per-link fault windows (see [`crate::Fault`]). Usually empty at
    /// construction and extended later via [`NetSim::add_fault`].
    pub faults: FaultSchedule,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            seed: 1804,
            udp_loss: 0.01,
            jitter_ms: 8,
            nat_window_ms: 120_000,
            shards: 1,
            faults: FaultSchedule::default(),
        }
    }
}

/// TCP-layer counters (the UDP side has [`NetSim::udp_counters`]; fault
/// scenarios assert against these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpCounters {
    /// Connections that reached the `Established` state.
    pub connects: u64,
    /// Abortive teardowns: fault-injected resets plus connections killed
    /// by a host death.
    pub resets: u64,
    /// Payload bytes accepted for delivery (post-truncation).
    pub bytes: u64,
    /// Segments silently lost to blackhole windows.
    pub segments_dropped: u64,
}

snap_struct!(TcpCounters {
    connects,
    resets,
    bytes,
    segments_dropped
});

struct Slot {
    host: Option<Box<dyn Host>>,
    addr: HostAddr,
    meta: HostMeta,
    alive: bool,
    /// This host's deterministic RNG stream. Every draw the engine makes
    /// on behalf of a host (latency jitter, loss coins, fault dice, and
    /// the host's own `Ctx::rng`) comes from the stream of the event's
    /// owner, so a stream's evolution depends only on that host's own
    /// event history — never on how other hosts' events interleave.
    rng: StdRng,
    /// Key counter for events pushed while this host's events dispatch
    /// (see [`NetSim::push`]).
    next_key: u32,
    /// Outbound UDP contacts for NAT pinholes: peer addr → last send time.
    nat: NatTable,
    /// Established connections this host participates in. Lets a host
    /// stop tear down exactly its own connections instead of scanning
    /// every connection ever created.
    live_conns: Vec<ConnId>,
}

/// Causal provenance minted at push time: the scheduler key of the
/// nearest causal-ancestor dispatch that recorded a trace event
/// (`cause`, 0 = no traced ancestor / pushed from outside any dispatch)
/// and the number of traced hops back to such an external root
/// (`depth`). Skipping silent dispatches keeps every recorded chain
/// link resolvable from the trace export alone. Both are pure functions
/// of per-host event histories.
#[derive(Clone, Copy)]
struct Prov {
    cause: u64,
    depth: u32,
}

snap_struct!(Prov { cause, depth });

/// The per-kind event-mix counters, indexed by [`Ev::kind_idx`]. What
/// follows `netsim.events.` is the kind's name in the profiler's
/// attribution table; both are `&'static`, so the hot path stores
/// indices and never allocates.
const EV_KIND_METRICS: [&str; 9] = [
    "netsim.events.udp",
    "netsim.events.tcp_syn",
    "netsim.events.tcp_establish",
    "netsim.events.tcp_data",
    "netsim.events.tcp_close",
    "netsim.events.timer",
    "netsim.events.start_host",
    "netsim.events.stop_host",
    "netsim.events.set_reachable",
];

enum Ev {
    Udp {
        to: HostId,
        from: HostAddr,
        bytes: Payload,
    },
    TcpSyn {
        conn: ConnId,
    },
    TcpEstablish {
        conn: ConnId,
        ok: bool,
    },
    TcpData {
        conn: ConnId,
        to_initiator: bool,
        bytes: Payload,
    },
    TcpClose {
        conn: ConnId,
        to_initiator: bool,
    },
    Timer {
        host: HostId,
        token: u64,
    },
    StartHost {
        host: HostId,
    },
    StopHost {
        host: HostId,
    },
    SetReachable {
        host: HostId,
        reachable: bool,
    },
}

// Tags reuse `Ev::kind_idx` so the snapshot format and the profiler
// attribution table stay in lockstep.
snap_enum!(Ev {
    0 => Udp { to, from, bytes },
    1 => TcpSyn { conn },
    2 => TcpEstablish { conn, ok },
    3 => TcpData { conn, to_initiator, bytes },
    4 => TcpClose { conn, to_initiator },
    5 => Timer { host, token },
    6 => StartHost { host },
    7 => StopHost { host },
    8 => SetReachable { host, reachable },
});

impl Ev {
    /// The connection a queued event keeps alive, if any: while the event
    /// sits in a queue it pins the slab cell through its pending count.
    fn conn_ref(&self) -> Option<ConnId> {
        match self {
            Ev::TcpSyn { conn }
            | Ev::TcpEstablish { conn, .. }
            | Ev::TcpData { conn, .. }
            | Ev::TcpClose { conn, .. } => Some(*conn),
            _ => None,
        }
    }

    /// The host a queued event names directly, if any (restore validates
    /// it against the shell's host table).
    fn host_ref(&self) -> Option<HostId> {
        match self {
            Ev::Udp { to: host, .. }
            | Ev::Timer { host, .. }
            | Ev::StartHost { host }
            | Ev::StopHost { host }
            | Ev::SetReachable { host, .. } => Some(*host),
            _ => None,
        }
    }

    /// Index into [`EV_KIND_METRICS`].
    fn kind_idx(&self) -> usize {
        match self {
            Ev::Udp { .. } => 0,
            Ev::TcpSyn { .. } => 1,
            Ev::TcpEstablish { .. } => 2,
            Ev::TcpData { .. } => 3,
            Ev::TcpClose { .. } => 4,
            Ev::Timer { .. } => 5,
            Ev::StartHost { .. } => 6,
            Ev::StopHost { .. } => 7,
            Ev::SetReachable { .. } => 8,
        }
    }
}

/// Interned metric handles for every counter the engine touches per
/// event. Interning once at construction keeps the hot loop free of
/// string allocation and registry lookups; the exported names and values
/// are identical to the string-addressed equivalents.
#[derive(Clone, Copy)]
struct EngineIds {
    events_total: MetricId,
    queue_depth_peak: MetricId,
    udp_sent: MetricId,
    udp_dropped: MetricId,
    tcp_connects: MetricId,
    tcp_resets: MetricId,
    tcp_bytes: MetricId,
    tcp_segments_dropped: MetricId,
    /// [`EV_KIND_METRICS`], interned in table order.
    events_by_kind: [MetricId; 9],
}

impl EngineIds {
    fn intern() -> EngineIds {
        EngineIds {
            events_total: obs::handle("netsim.events_total"),
            queue_depth_peak: obs::handle("netsim.queue_depth_peak"),
            udp_sent: obs::handle("netsim.udp_sent"),
            udp_dropped: obs::handle("netsim.udp_dropped"),
            tcp_connects: obs::handle("netsim.tcp.connects"),
            tcp_resets: obs::handle("netsim.tcp.resets"),
            tcp_bytes: obs::handle("netsim.tcp.bytes"),
            tcp_segments_dropped: obs::handle("netsim.tcp.segments_dropped"),
            events_by_kind: EV_KIND_METRICS.map(obs::handle),
        }
    }
}

/// Mix a world seed and a host id into one RNG-stream seed (splitmix64
/// finalizer — distinct, well-spread streams even for adjacent ids).
fn host_stream_seed(seed: u64, host: u64) -> u64 {
    let mut z = seed ^ host.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pack an address into 48 bits, `ip << 16 | port`: the key of the NAT
/// table, and so of its part of the image.
fn addr_key(addr: HostAddr) -> u64 {
    ((u32::from(addr.ip) as u64) << 16) | addr.port as u64
}

/// Per-host NAT pinhole table: peer addr → last outbound send time. A
/// sorted vector over packed addresses replaces the former
/// `BTreeMap<HostAddr, u64>`: most sends hit an existing entry (binary
/// search + in-place timestamp update, no allocation); only the first
/// contact with a new peer pays an ordered insert. Probed by key only —
/// never iterated — so the representation is invisible to event order.
#[derive(Default)]
struct NatTable {
    /// `(packed addr, last send ms)`, ascending by key.
    entries: Vec<(u64, u64)>,
}

impl NatTable {
    // One update per outbound UDP datagram.
    fn note_send(&mut self, to: HostAddr, now: u64) {
        let key = addr_key(to);
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(pos) => self.entries[pos].1 = now,
            Err(pos) => self.entries.insert(pos, (key, now)),
        }
    }

    /// Was `from` contacted within the last `window_ms`?
    // One probe per inbound datagram at an unreachable host.
    fn solicited(&self, from: HostAddr, now: u64, window_ms: u64) -> bool {
        let key = addr_key(from);
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(pos) => now.saturating_sub(self.entries[pos].1) <= window_ms,
            Err(_) => false,
        }
    }
}

/// The simulator.
pub struct NetSim {
    now: u64,
    /// Key counter for events pushed from outside any dispatch (origin 0:
    /// world building, schedules, public APIs between runs). Starts at 1:
    /// key 0 is the provenance sentinel for "no dispatch" (external
    /// root), so no real event may own it.
    ext_seq: u32,
    /// `owner + 1` of the event currently dispatching; 0 outside dispatch.
    /// Keys minted under origin `o` sort after all external keys and are
    /// ordered by `o`'s private counter, which makes the total `(at, key)`
    /// order a pure function of per-host event histories.
    origin: u32,
    /// Scheduler key of the event currently dispatching (0 outside
    /// dispatch), its own cause, and its causal depth — the provenance
    /// that `push` stamps onto children. `cur_cause` lets a dispatch
    /// that recorded no trace events forward its ancestor instead of
    /// itself, so recorded chains never dead-end on a silent dispatch.
    cur_key: u64,
    cur_cause: u64,
    cur_depth: u32,
    /// Every pending event with its owner and provenance.
    queue: EventQueue<(HostId, Prov, Ev)>,
    queue_depth_peak: u64,
    slots: Vec<Slot>,
    /// Which host holds each address: probed once per UDP send and once
    /// per SYN, inserted into by `add_host`, never iterated.
    index: BTreeMap<HostAddr, HostId>,
    conns: ConnTable,
    config: SimConfig,
    events_processed: u64,
    udp_sent: u64,
    udp_dropped: u64,
    tcp: TcpCounters,
    ids: EngineIds,
    /// Recycled action vector for [`NetSim::with_host`]: taken before each
    /// host callback, returned by [`NetSim::apply_actions`], so the hot
    /// path reuses one allocation instead of building a fresh `Vec` per
    /// event.
    action_buf: Vec<Action>,
}

/// Hosts are `dyn Host` slots, so only the clock and counters print.
impl fmt::Debug for NetSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetSim")
            .field("now", &self.now)
            .field("hosts", &self.slots.len())
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

impl NetSim {
    /// Create an empty simulation.
    pub fn new(config: SimConfig) -> NetSim {
        NetSim {
            now: 0,
            ext_seq: 1,
            origin: 0,
            cur_key: 0,
            cur_cause: 0,
            cur_depth: 0,
            queue: EventQueue::new(),
            queue_depth_peak: 0,
            slots: Vec::new(),
            index: BTreeMap::new(),
            conns: ConnTable::default(),
            config,
            events_processed: 0,
            udp_sent: 0,
            udp_dropped: 0,
            tcp: TcpCounters::default(),
            ids: EngineIds::intern(),
            action_buf: Vec::new(),
        }
    }

    /// Current simulated time, ms.
    pub fn now_ms(&self) -> u64 {
        self.now
    }

    /// Total events dispatched (diagnostics / benches).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the scheduler queue depth (diagnostics /
    /// benches; tracked engine-side so it is available without a
    /// recorder installed).
    pub fn queue_depth_peak(&self) -> u64 {
        self.queue_depth_peak
    }

    /// (sent, dropped) UDP datagram counters.
    pub fn udp_counters(&self) -> (u64, u64) {
        (self.udp_sent, self.udp_dropped)
    }

    /// TCP-layer counters: establishes, abortive resets, payload bytes,
    /// blackholed segments.
    pub fn tcp_counters(&self) -> TcpCounters {
        self.tcp
    }

    /// Install a fault window after construction (worlds build their own
    /// `SimConfig`, so the robustness harness injects faults here).
    pub fn add_fault(&mut self, window: FaultWindow) {
        self.config.faults.push(window);
    }

    /// Take `hosts` down together at `at_ms` and bring them back
    /// `down_ms` later — a correlated outage.
    pub fn churn_burst(&mut self, hosts: &[HostId], at_ms: u64, down_ms: u64) {
        for &host in hosts {
            self.schedule_stop(host, at_ms);
            self.schedule_start(host, at_ms + down_ms);
        }
    }

    /// Schedule a reachability change (NAT state) at `at_ms`.
    pub fn schedule_reachable(&mut self, host: HostId, at_ms: u64, reachable: bool) {
        self.push(at_ms, host, Ev::SetReachable { host, reachable });
    }

    /// Toggle a host's public reachability off and back on `flaps` times,
    /// `period_ms` per half-cycle, starting at `from_ms`.
    pub fn nat_flap(&mut self, host: HostId, from_ms: u64, period_ms: u64, flaps: u32) {
        for i in 0..flaps as u64 {
            self.schedule_reachable(host, from_ms + 2 * i * period_ms, false);
            self.schedule_reachable(host, from_ms + (2 * i + 1) * period_ms, true);
        }
    }

    /// Register a host (initially offline; schedule a start).
    ///
    /// # Panics
    /// Panics if `addr` is already taken — the world generator owns the
    /// address plan, and a collision is a bug there.
    pub fn add_host(&mut self, addr: HostAddr, meta: HostMeta, host: Box<dyn Host>) -> HostId {
        assert!(
            !self.index.contains_key(&addr),
            "address {addr} already in use"
        );
        let id = self.slots.len();
        self.slots.push(Slot {
            host: Some(host),
            addr,
            meta,
            alive: false,
            rng: StdRng::seed_from_u64(host_stream_seed(self.config.seed, id as u64)),
            next_key: 0,
            nat: NatTable::default(),
            live_conns: Vec::new(),
        });
        self.index.insert(addr, id);
        id
    }

    /// Schedule a host start at absolute time `at_ms`.
    pub fn schedule_start(&mut self, host: HostId, at_ms: u64) {
        self.push(at_ms, host, Ev::StartHost { host });
    }

    /// Schedule a host stop at absolute time `at_ms`.
    pub fn schedule_stop(&mut self, host: HostId, at_ms: u64) {
        self.push(at_ms, host, Ev::StopHost { host });
    }

    /// Whether a host is currently online.
    pub fn is_alive(&self, host: HostId) -> bool {
        self.slots[host].alive
    }

    /// A host's metadata.
    pub fn host_meta(&self, host: HostId) -> &HostMeta {
        &self.slots[host].meta
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.slots.len()
    }

    /// Take a host's behaviour out of the simulation (end of run).
    pub fn remove_host_behaviour(&mut self, host: HostId) -> Option<Box<dyn Host>> {
        self.slots[host].host.take()
    }

    /// Queue `ev` for `owner` at absolute time `at`.
    ///
    /// The sort key encodes the *pushing* context, not the receiver: keys
    /// minted outside any dispatch use the low 32-bit `ext_seq` range;
    /// keys minted while host `h`'s event dispatches are
    /// `(h + 1) << 32 | slot counter`. Same-time events therefore order
    /// by (external pushes first, then by pushing host, then by that
    /// host's own push order) — a pure function of per-host histories,
    /// not of the order in which different hosts happened to push.
    /// Nothing is scheduled into the past: `at` is clamped up to `now`,
    /// and a clamp firing in a debug build is a world-builder bug.
    // Every scheduled event funnels through here.
    fn push(&mut self, at: u64, owner: HostId, ev: Ev) {
        debug_assert!(at >= self.now, "push into the past: {at} < {}", self.now);
        let at = at.max(self.now);
        if let Some(id) = ev.conn_ref() {
            self.conns.pin(id);
        }
        let key = if self.origin == 0 {
            let k = self.ext_seq;
            self.ext_seq += 1;
            k as u64
        } else {
            let slot = &mut self.slots[(self.origin - 1) as usize];
            let k = slot.next_key;
            slot.next_key += 1;
            ((self.origin as u64) << 32) | k as u64
        };
        // Provenance: the nearest *traced* ancestor is the cause — a
        // pushing dispatch that recorded no trace events forwards its own
        // cause unchanged, so every recorded `cause` resolves within the
        // exported trace. Depth counts traced hops from an external root.
        // Whether a dispatch traced anything is a pure function of its
        // event history, so the stamps are too.
        let prov = if self.cur_key == 0 {
            Prov { cause: 0, depth: 0 }
        } else if obs::dispatch_emitted() {
            Prov {
                cause: self.cur_key,
                depth: self.cur_depth + 1,
            }
        } else {
            Prov {
                cause: self.cur_cause,
                depth: self.cur_depth,
            }
        };
        self.queue.push(at, key, (owner, prov, ev));
    }

    /// One-way latency from `a` to `b`; the jitter draw comes from
    /// `draw`'s stream — always the owner of the event being dispatched,
    /// so the draw sequence depends on that host's history alone.
    fn one_way_latency(&mut self, draw: HostId, a: HostId, b: HostId) -> u64 {
        let base = latency_between(self.slots[a].meta.region, self.slots[b].meta.region) as u64;
        let jitter = if self.config.jitter_ms > 0 {
            self.slots[draw].rng.gen_range(0..self.config.jitter_ms) as u64
        } else {
            0
        };
        (base + jitter).max(1)
    }

    /// Run until the queue is empty or simulated time exceeds
    /// `until_ms`.
    // The main event loop: every simulated event funnels through here.
    pub fn run_until(&mut self, until_ms: u64) {
        obs::profile::run_mark_start();
        while let Some((at, key, (owner, prov, ev))) = self.queue.pop_at_most(until_ms) {
            self.dispatch_at(at, key, owner, prov, ev);
        }
        self.now = self.now.max(until_ms);
        obs::profile::run_mark_end();
    }

    /// Per-event bookkeeping around [`NetSim::dispatch`]: clock, depth
    /// gauge, obs counters, provenance bracketing, profiler timing,
    /// origin bracketing, and the un-pin that may recycle a connection
    /// cell.
    fn dispatch_at(&mut self, at: u64, key: u64, owner: HostId, prov: Prov, ev: Ev) {
        self.now = at;
        let depth = 1 + self.queue.len() as u64;
        self.queue_depth_peak = self.queue_depth_peak.max(depth);
        // Observability is pure: it reads the scheduler state but never
        // touches a sim RNG or a queue, so instrumented and
        // uninstrumented runs execute identical event sequences. All
        // per-event counters go through interned handles — no string
        // work on this path.
        let kind_idx = ev.kind_idx();
        obs::set_now(at);
        obs::set_cause(key, prov.cause, prov.depth);
        obs::gauge_max_id(self.ids.queue_depth_peak, depth);
        obs::counter_add_id(self.ids.events_total, 1);
        obs::counter_add_id(self.ids.events_by_kind[kind_idx], 1);
        let pinned = ev.conn_ref();
        self.cur_key = key;
        self.cur_cause = prov.cause;
        self.cur_depth = prov.depth;
        self.origin = owner as u32 + 1;
        let timer = obs::profile::dispatch_start();
        self.dispatch(ev);
        let kind_name = &EV_KIND_METRICS[kind_idx]["netsim.events.".len()..];
        obs::profile::dispatch_end(timer, kind_idx, kind_name, owner as u64);
        self.origin = 0;
        self.cur_key = 0;
        self.cur_cause = 0;
        self.cur_depth = 0;
        obs::set_cause(0, 0, 0);
        self.events_processed += 1;
        if let Some(id) = pinned {
            self.conns.unpin(id);
        }
    }

    /// The host that receives a conn-stream event — the event's owner,
    /// whose stream its RNG draws come from. Only valid ids reach this
    /// (push sites hold a live connection).
    fn conn_event_owner(&self, conn: ConnId, to_initiator: bool) -> HostId {
        let c = self.conns.info(conn);
        if to_initiator {
            c.initiator
        } else {
            c.acceptor.unwrap_or(c.initiator)
        }
    }

    /// Close `conn` (unlinking it if it was Established), count a reset
    /// if it is one, and send `Closed` toward each end in `notify` (the
    /// `to_initiator` flags) after one delay.
    fn close_conn(&mut self, conn: ConnId, reset: bool, notify: &[bool]) {
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        let was_established = c.state == ConnState::Established;
        c.state = ConnState::Closed;
        if was_established {
            self.unlink_conn(conn);
        }
        if reset {
            self.tcp.resets += 1;
            obs::counter_add_id(self.ids.tcp_resets, 1);
        }
        let delay = self.conn_delay(conn);
        for &to_initiator in notify {
            let owner = self.conn_event_owner(conn, to_initiator);
            self.push(self.now + delay, owner, Ev::TcpClose { conn, to_initiator });
        }
    }

    /// The live host a conn-stream event toward `to_initiator`'s end is
    /// for, if any.
    fn conn_dest(&self, c: &ConnInfo, to_initiator: bool) -> Option<HostId> {
        let dest = if to_initiator {
            Some(c.initiator)
        } else {
            c.acceptor
        };
        dest.filter(|&d| self.slots[d].alive)
    }

    /// Count a UDP datagram lost: to a dead or absent host, to a NAT, or
    /// to the loss coin or a fault.
    fn drop_udp(&mut self) {
        self.udp_dropped += 1;
        obs::counter_add_id(self.ids.udp_dropped, 1);
    }

    // Per-event demux; runs once per event popped by run_until.
    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::StartHost { host } => {
                if !self.slots[host].alive {
                    self.slots[host].alive = true;
                    self.with_host(host, |h, ctx| h.on_start(ctx));
                }
            }
            Ev::StopHost { host } => {
                if self.slots[host].alive {
                    self.with_host(host, |h, ctx| h.on_stop(ctx));
                    self.slots[host].alive = false;
                    self.slots[host].nat.entries.clear();
                    // Close all of its live connections toward the peers.
                    // The per-slot index holds exactly this host's
                    // established connections; sorting keeps the close
                    // order independent of link/unlink history.
                    let mut dead: Vec<(ConnId, bool)> = self.slots[host]
                        .live_conns
                        .iter()
                        .map(|&id| (id, self.conns.info(id).initiator != host))
                        .collect();
                    dead.sort_unstable();
                    for (conn, to_initiator) in dead {
                        debug_assert_eq!(self.conns.info(conn).state, ConnState::Established);
                        self.close_conn(conn, true, &[to_initiator]);
                    }
                }
            }
            Ev::SetReachable { host, reachable } => {
                self.slots[host].meta.reachable = reachable;
            }
            Ev::Timer { host, token } => {
                if self.slots[host].alive {
                    self.with_host(host, |h, ctx| h.on_timer(ctx, token));
                }
            }
            Ev::Udp { to, from, bytes } => {
                // NAT: unreachable hosts accept only solicited datagrams.
                let slot = &self.slots[to];
                let window = self.config.nat_window_ms;
                if !slot.alive
                    || (!slot.meta.reachable && !slot.nat.solicited(from, self.now, window))
                {
                    self.drop_udp();
                    return;
                }
                self.with_host(to, |h, ctx| h.on_udp(ctx, from, &bytes));
            }
            Ev::TcpSyn { conn } => {
                let Some(c) = self.conns.get(conn).copied() else {
                    return;
                };
                let faults = &self.config.faults;
                let blackholed = faults.tcp_connect_blocked(self.now, c.local_addr, c.remote_addr);
                let acceptor = self.index.get(&c.remote_addr).copied().filter(|&t| {
                    !blackholed && self.slots[t].alive && self.slots[t].meta.reachable
                });
                let delay = self.conn_delay(conn);
                if let Some(t) = acceptor {
                    // Refine RTT with the acceptor's actual region. The
                    // jitter draw belongs to the acceptor — the owner of
                    // this event.
                    let lat = self.one_way_latency(t, c.initiator, t);
                    if let Some(ci) = self.conns.get_mut(conn) {
                        ci.acceptor = Some(t);
                        ci.rtt_ms = (2 * lat) as u32;
                    }
                    let local = c.local_addr;
                    self.with_host(t, |h, ctx| {
                        h.on_tcp(ctx, TcpEvent::Incoming { conn, peer: local })
                    });
                }
                let ok = acceptor.is_some();
                self.push(self.now + delay, c.initiator, Ev::TcpEstablish { conn, ok });
            }
            Ev::TcpEstablish { conn, ok } => {
                let Some(c) = self.conns.get_mut(conn) else {
                    return;
                };
                if c.state != ConnState::Dialing {
                    return;
                }
                let alive = self.slots[c.initiator].alive;
                c.state = if alive && ok {
                    ConnState::Established
                } else {
                    ConnState::Closed
                };
                let c = *c;
                if !alive {
                    return;
                }
                if ok {
                    self.link_conn(conn);
                    self.tcp.connects += 1;
                    obs::counter_add_id(self.ids.tcp_connects, 1);
                    let peer = c.remote_addr;
                    self.with_host(c.initiator, |h, ctx| {
                        h.on_tcp(ctx, TcpEvent::Connected { conn, peer })
                    });
                } else {
                    self.with_host(c.initiator, |h, ctx| {
                        h.on_tcp(ctx, TcpEvent::ConnectFailed { conn })
                    });
                }
            }
            Ev::TcpData {
                conn,
                to_initiator,
                bytes,
            } => {
                let c = self.conns.get(conn).copied();
                let c = c.filter(|c| c.state == ConnState::Established);
                if let Some(dest) = c.and_then(|c| self.conn_dest(&c, to_initiator)) {
                    self.with_host(dest, |h, ctx| h.on_tcp(ctx, TcpEvent::Data { conn, bytes }));
                }
            }
            Ev::TcpClose { conn, to_initiator } => {
                let c = self.conns.get(conn).copied();
                if let Some(dest) = c.and_then(|c| self.conn_dest(&c, to_initiator)) {
                    self.with_host(dest, |h, ctx| h.on_tcp(ctx, TcpEvent::Closed { conn }));
                }
            }
        }
    }

    // One-way delay for events on an established connection. Deliberately
    // jitter-free: TCP is an ordered stream, and per-event jitter could
    // deliver a Closed before the final Data segment (losing, e.g., a
    // DISCONNECT frame sent just before hangup). Path jitter is baked into
    // the connection's RTT when the SYN resolves. Only live ids reach
    // this, so the blind read is safe.
    fn conn_delay(&self, conn: ConnId) -> u64 {
        (self.conns.info(conn).rtt_ms / 2).max(1) as u64
    }

    /// Record an established connection in both endpoints' live lists.
    fn link_conn(&mut self, conn: ConnId) {
        let c = *self.conns.info(conn);
        self.slots[c.initiator].live_conns.push(conn);
        if let Some(acc) = c.acceptor {
            if acc != c.initiator {
                self.slots[acc].live_conns.push(conn);
            }
        }
    }

    /// Remove a connection from both endpoints' live lists (call on
    /// every Established → Closed transition).
    fn unlink_conn(&mut self, conn: ConnId) {
        let c = *self.conns.info(conn);
        self.slots[c.initiator].live_conns.retain(|&id| id != conn);
        if let Some(acc) = c.acceptor {
            if acc != c.initiator {
                self.slots[acc].live_conns.retain(|&id| id != conn);
            }
        }
    }

    /// Take the host out of its slot, run `f` with a fresh Ctx, apply the
    /// resulting actions. The action vector is recycled through
    /// `action_buf` so steady-state event handling never allocates it;
    /// `apply_actions` never re-enters `with_host`, so the take/restore
    /// pair cannot nest.
    fn with_host<F>(&mut self, host: HostId, f: F)
    where
        F: FnOnce(&mut dyn Host, &mut Ctx),
    {
        let slot = &mut self.slots[host];
        let Some(mut behaviour) = slot.host.take() else {
            return;
        };
        let mut ctx = Ctx {
            now_ms: self.now,
            host,
            local: slot.addr,
            rng: &mut slot.rng,
            conns: &mut self.conns,
            actions: std::mem::take(&mut self.action_buf),
        };
        f(behaviour.as_mut(), &mut ctx);
        let actions = ctx.actions;
        self.slots[host].host = Some(behaviour);
        self.apply_actions(host, actions);
    }

    // Executes every action a host callback emits.
    fn apply_actions(&mut self, host: HostId, mut actions: Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::SendUdp { to, bytes } => {
                    self.udp_sent += 1;
                    obs::counter_add_id(self.ids.udp_sent, 1);
                    // NAT pinhole for the sender.
                    let now = self.now;
                    self.slots[host].nat.note_send(to, now);
                    if self.slots[host].rng.gen_bool(self.config.udp_loss) {
                        self.drop_udp();
                        continue;
                    }
                    let Some(&dest) = self.index.get(&to) else {
                        self.drop_udp();
                        continue;
                    };
                    let from = self.slots[host].addr;
                    let rng = &mut self.slots[host].rng;
                    let extra = match self.config.faults.udp_fate(now, from, to, rng) {
                        UdpFate::Drop => {
                            self.drop_udp();
                            continue;
                        }
                        UdpFate::Deliver { extra_ms } => extra_ms,
                    };
                    let lat = self.one_way_latency(host, host, dest) + extra;
                    self.push(
                        now + lat,
                        dest,
                        Ev::Udp {
                            to: dest,
                            from,
                            bytes,
                        },
                    );
                }
                Action::TcpConnect { conn, to } => {
                    // `Ctx::tcp_connect` opened the cell. Estimate RTT
                    // with the local region twice until the SYN resolves
                    // the peer.
                    let lat = self.one_way_latency(host, host, host).max(1);
                    if let Some(c) = self.conns.get_mut(conn) {
                        c.rtt_ms = (2 * lat) as u32;
                    }
                    let delay = self.conn_delay(conn);
                    let owner = self.index.get(&to).copied().unwrap_or(host);
                    self.push(self.now + delay, owner, Ev::TcpSyn { conn });
                }
                Action::TcpSend { conn, mut bytes } => {
                    let Some(c) = self.conns.get(conn).copied() else {
                        continue;
                    };
                    if c.state != ConnState::Established {
                        continue;
                    }
                    let to_initiator = c.initiator != host;
                    let rng = &mut self.slots[host].rng;
                    let (a, b) = (c.local_addr, c.remote_addr);
                    let fate = self.config.faults.tcp_fate(self.now, a, b, &mut bytes, rng);
                    let extra = match fate {
                        TcpFate::Drop => {
                            self.tcp.segments_dropped += 1;
                            obs::counter_add_id(self.ids.tcp_segments_dropped, 1);
                            continue;
                        }
                        TcpFate::Reset => {
                            self.close_conn(conn, true, &[true, false]);
                            continue;
                        }
                        TcpFate::Deliver { extra_ms } => extra_ms,
                    };
                    self.tcp.bytes += bytes.len() as u64;
                    obs::counter_add_id(self.ids.tcp_bytes, bytes.len() as u64);
                    let delay = self.conn_delay(conn) + extra;
                    let owner = self.conn_event_owner(conn, to_initiator);
                    self.push(
                        self.now + delay,
                        owner,
                        Ev::TcpData {
                            conn,
                            to_initiator,
                            bytes,
                        },
                    );
                }
                Action::TcpClose { conn } => {
                    let Some(c) = self.conns.get(conn).copied() else {
                        continue;
                    };
                    if c.state != ConnState::Closed {
                        self.close_conn(conn, false, &[c.initiator != host]);
                    }
                }
                Action::SetTimer { delay_ms, token } => {
                    self.push(self.now + delay_ms, host, Ev::Timer { host, token });
                }
            }
        }
        // Hand the (now empty) vector back for the next with_host call.
        self.action_buf = actions;
    }
}
