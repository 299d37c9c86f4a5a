//! The discrete-event engine: hosts, UDP, TCP, timers, churn.

use crate::faults::{FaultSchedule, FaultWindow, TcpFate, UdpFate};
use crate::payload::Payload;
use crate::sched::EventQueue;
use crate::topology::{latency_between, HostMeta};
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use obs::{snap_enum, snap_struct, MetricId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::net::Ipv4Addr;

/// Magic prefixing every engine-level world snapshot.
pub const SNAP_MAGIC: [u8; 4] = *b"PSNP";

/// Current engine snapshot format version.
pub const SNAP_VERSION: u8 = 2;

/// Identifies a host inside one simulation.
pub type HostId = usize;

/// Identifies a TCP connection inside one simulation.
///
/// Packs a slab index in the low 32 bits and a generation in the high
/// bits: connection storage is recycled once a connection closes and its
/// last in-flight event drains, and the generation check turns a stale id
/// still held by a host into a no-op instead of an aliased access.
pub type ConnId = usize;

const CONN_IDX_BITS: u32 = 32;
const CONN_IDX_MASK: usize = (1 << CONN_IDX_BITS) - 1;

fn conn_pack(generation: u32, idx: usize) -> ConnId {
    debug_assert!(idx <= CONN_IDX_MASK);
    ((generation as usize) << CONN_IDX_BITS) | idx
}

fn conn_idx(id: ConnId) -> usize {
    id & CONN_IDX_MASK
}

fn conn_gen(id: ConnId) -> u32 {
    (id >> CONN_IDX_BITS) as u32
}

/// A transport address: the simulator's sockets are `(ip, port)` pairs; a
/// host binds one port for both its UDP (discovery) and TCP (RLPx)
/// traffic, like an Ethereum node's default 30303/30303.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostAddr {
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// Port (shared by UDP and TCP in this model).
    pub port: u16,
}

snap_struct!(HostAddr { ip, port });

impl HostAddr {
    /// Construct.
    pub fn new(ip: Ipv4Addr, port: u16) -> HostAddr {
        HostAddr { ip, port }
    }
}

impl std::fmt::Display for HostAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// TCP notifications delivered to a host.
#[derive(Debug, Clone, PartialEq)]
pub enum TcpEvent {
    /// Our dial completed.
    Connected {
        /// The connection.
        conn: ConnId,
        /// Remote address.
        peer: HostAddr,
    },
    /// Our dial failed (dead, unreachable, or NATed target).
    ConnectFailed {
        /// The connection that failed.
        conn: ConnId,
    },
    /// A remote dialed us.
    Incoming {
        /// The connection.
        conn: ConnId,
        /// Remote address.
        peer: HostAddr,
    },
    /// Ordered stream data arrived.
    Data {
        /// Payload bytes (cheaply clonable shared buffer; derefs to
        /// `&[u8]`).
        bytes: Payload,
        /// The connection.
        conn: ConnId,
    },
    /// The peer closed (or died).
    Closed {
        /// The connection.
        conn: ConnId,
    },
}

/// Behaviour attached to a simulated host. Implementations hold the
/// protocol state machines and pump bytes through them.
pub trait Host {
    /// The host came online (initial start or churn restart).
    fn on_start(&mut self, ctx: &mut Ctx);
    /// A UDP datagram arrived.
    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]);
    /// A TCP event occurred.
    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent);
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64);
    /// The host is going offline (connections are closed by the engine).
    fn on_stop(&mut self, _ctx: &mut Ctx) {}
    /// Write the behaviour's dynamic state — its own section header
    /// first, then its fields — straight into the world snapshot `w`.
    /// The engine frames what this appends with its `u64` length (see
    /// [`SnapWriter::section`]), so the behaviour neither builds a buffer
    /// of its own nor returns one. The default marks the behaviour as
    /// non-checkpointable, which fails [`NetSim::snapshot`] with
    /// [`SnapError::Unsupported`].
    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Err(SnapError::Unsupported(
            "host behaviour does not implement save_state",
        ))
    }
    /// Restore state captured by [`Host::save_state`] into a freshly
    /// rebuilt behaviour (the restore shell re-creates every behaviour
    /// with its static configuration first; this call then overwrites
    /// the dynamic parts). Any error — the default is
    /// [`SnapError::Unsupported`] — fails [`NetSim::restore`] with it.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), SnapError> {
        Err(SnapError::Unsupported(
            "host behaviour does not implement load_state",
        ))
    }
    /// Surrender the behaviour as `Any` so experiment harnesses can
    /// downcast it back to the concrete type and read its logs after
    /// [`NetSim::remove_host_behaviour`].
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

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
    /// Scheduler shards. `1` (the default) runs one event queue; larger
    /// counts partition hosts round-robin across per-shard queues
    /// merged under the conservative barrier-epoch protocol
    /// (lookahead = [`crate::min_link_latency_ms`]). Any shard count
    /// produces byte-identical traces on the same seed — see DESIGN.md
    /// § Sharded execution.
    pub shards: usize,
    /// Per-link fault windows (see [`crate::faults`]). Usually empty at
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

/// What a host asks the engine to do; applied after the callback returns.
enum Action {
    SendUdp { to: HostAddr, bytes: Payload },
    TcpConnect { conn: ConnId, to: HostAddr },
    TcpSend { conn: ConnId, bytes: Payload },
    TcpClose { conn: ConnId },
    SetTimer { delay_ms: u64, token: u64 },
}

/// The API surface a host sees during a callback.
pub struct Ctx<'a> {
    /// Current simulated time, ms.
    pub now_ms: u64,
    host: HostId,
    local: HostAddr,
    rng: &'a mut StdRng,
    conn_entries: &'a [ConnEntry],
    conn_free: &'a [u32],
    actions: Vec<Action>,
    new_conns: usize,
}

impl fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("now_ms", &self.now_ms)
            .field("host", &self.host)
            .finish_non_exhaustive()
    }
}

impl<'a> Ctx<'a> {
    /// This host's id.
    pub fn host_id(&self) -> HostId {
        self.host
    }

    /// This host's address.
    pub fn local_addr(&self) -> HostAddr {
        self.local
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Send a UDP datagram. Accepts a `Vec<u8>` or a shared [`Payload`]
    /// (e.g. to fan one buffer out to many peers without copies).
    pub fn send_udp(&mut self, to: HostAddr, bytes: impl Into<Payload>) {
        self.actions.push(Action::SendUdp {
            to,
            bytes: bytes.into(),
        });
    }

    /// Open a TCP connection; resolves to `Connected` or `ConnectFailed`.
    pub fn tcp_connect(&mut self, to: HostAddr) -> ConnId {
        // Preview the engine's slab allocation: the k-th connection this
        // callback opens pops the free list from its top, then extends the
        // slab. `apply_actions` performs the identical walk when the
        // action lands, so the id handed out here matches the engine's.
        let k = self.new_conns;
        self.new_conns += 1;
        let conn = if k < self.conn_free.len() {
            let idx = self.conn_free[self.conn_free.len() - 1 - k] as usize;
            conn_pack(self.conn_entries[idx].generation, idx)
        } else {
            conn_pack(0, self.conn_entries.len() + (k - self.conn_free.len()))
        };
        self.actions.push(Action::TcpConnect { conn, to });
        conn
    }

    /// Send bytes on an established connection. Accepts a `Vec<u8>` or a
    /// shared [`Payload`].
    pub fn tcp_send(&mut self, conn: ConnId, bytes: impl Into<Payload>) {
        self.actions.push(Action::TcpSend {
            conn,
            bytes: bytes.into(),
        });
    }

    /// Close a connection (peer gets `Closed` after one latency).
    pub fn tcp_close(&mut self, conn: ConnId) {
        self.actions.push(Action::TcpClose { conn });
    }

    /// Arrange an `on_timer(token)` callback after `delay_ms`.
    pub fn set_timer(&mut self, delay_ms: u64, token: u64) {
        self.actions.push(Action::SetTimer { delay_ms, token });
    }

    /// The connection's smoothed RTT in ms (what the paper's crawler logs
    /// as connection latency). Zero for unknown, unestablished, or stale
    /// (recycled-cell) connections.
    pub fn rtt_ms(&self, conn: ConnId) -> u32 {
        self.conn_entries
            .get(conn_idx(conn))
            .filter(|e| e.generation == conn_gen(conn))
            .map(|e| e.info.rtt_ms)
            .unwrap_or(0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ConnState {
    Dialing,
    Established,
    Closed,
}

snap_enum!(ConnState { 0 => Dialing, 1 => Established, 2 => Closed });

// Per-connection record; migrates with whichever shard owns the connection.
#[derive(Debug, Clone, Copy)]
struct ConnInfo {
    initiator: HostId,
    acceptor: Option<HostId>,
    remote_addr: HostAddr,
    local_addr: HostAddr,
    state: ConnState,
    rtt_ms: u32,
}

snap_struct!(ConnInfo {
    initiator,
    acceptor,
    remote_addr,
    local_addr,
    state,
    rtt_ms
});

// Slab cell for one connection; storage is recycled under a generation bump.
struct ConnEntry {
    /// Bumped every time the cell is freed: any id carrying an older
    /// generation is stale, and every access through it is a no-op.
    generation: u32,
    /// Scheduled events still referencing this connection. The cell is
    /// recycled only once the connection is Closed *and* this hits zero,
    /// so a queued event can never observe a reused cell.
    pending: u32,
    info: ConnInfo,
}

snap_struct!(ConnEntry {
    generation,
    pending,
    info
});

// Per-host record; the unit the sharded engine partitions across queues.
struct Slot {
    host: Option<Box<dyn Host>>,
    addr: HostAddr,
    meta: HostMeta,
    alive: bool,
    /// Which scheduler shard owns this host's events.
    shard: u32,
    /// This host's deterministic RNG stream. Every draw the engine makes
    /// on behalf of a host (latency jitter, loss coins, fault dice, and
    /// the host's own `Ctx::rng`) comes from the stream of the event's
    /// owner, so a stream's evolution depends only on that host's own
    /// event history — never on how other hosts' events interleave
    /// across shards.
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

// Provenance rides with its queued event across shard boundaries.
/// Causal provenance minted at push time: the scheduler key of the
/// nearest causal-ancestor dispatch that recorded a trace event
/// (`cause`, 0 = no traced ancestor / pushed from outside any dispatch)
/// and the number of traced hops back to such an external root
/// (`depth`). Skipping silent dispatches keeps every recorded chain
/// link resolvable from the trace export alone. Both are pure functions
/// of per-host event histories, so they are identical under any shard
/// count.
#[derive(Clone, Copy)]
struct Prov {
    cause: u64,
    depth: u32,
}

snap_struct!(Prov { cause, depth });

/// Event-kind names for profiler attribution, indexed by
/// [`Ev::kind_idx`]. `&'static` so the profiler hotpath stores indices
/// and never allocates.
const EV_KIND_NAMES: [&str; 9] = [
    "udp",
    "tcp_syn",
    "tcp_establish",
    "tcp_data",
    "tcp_close",
    "timer",
    "start_host",
    "stop_host",
    "set_reachable",
];

// Events cross shard boundaries when sender and receiver land on different workers.
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

    /// Index into [`EV_KIND_NAMES`] for profiler cost attribution.
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

    /// Interned handle of the per-kind event-mix counter.
    fn obs_id(&self, ids: &EngineIds) -> MetricId {
        match self {
            Ev::Udp { .. } => ids.ev_udp,
            Ev::TcpSyn { .. } => ids.ev_tcp_syn,
            Ev::TcpEstablish { .. } => ids.ev_tcp_establish,
            Ev::TcpData { .. } => ids.ev_tcp_data,
            Ev::TcpClose { .. } => ids.ev_tcp_close,
            Ev::Timer { .. } => ids.ev_timer,
            Ev::StartHost { .. } => ids.ev_start_host,
            Ev::StopHost { .. } => ids.ev_stop_host,
            Ev::SetReachable { .. } => ids.ev_set_reachable,
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
    ev_udp: MetricId,
    ev_tcp_syn: MetricId,
    ev_tcp_establish: MetricId,
    ev_tcp_data: MetricId,
    ev_tcp_close: MetricId,
    ev_timer: MetricId,
    ev_start_host: MetricId,
    ev_stop_host: MetricId,
    ev_set_reachable: MetricId,
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
            ev_udp: obs::handle("netsim.events.udp"),
            ev_tcp_syn: obs::handle("netsim.events.tcp_syn"),
            ev_tcp_establish: obs::handle("netsim.events.tcp_establish"),
            ev_tcp_data: obs::handle("netsim.events.tcp_data"),
            ev_tcp_close: obs::handle("netsim.events.tcp_close"),
            ev_timer: obs::handle("netsim.events.timer"),
            ev_start_host: obs::handle("netsim.events.start_host"),
            ev_stop_host: obs::handle("netsim.events.stop_host"),
            ev_set_reachable: obs::handle("netsim.events.set_reachable"),
        }
    }
}

/// One scheduler shard: the event queue of a disjoint subset of hosts.
struct Shard {
    queue: EventQueue<(HostId, Prov, Ev)>,
    /// Events dispatched by this shard (load-balance diagnostics).
    events: u64,
}

/// Mix a world seed and a host id into one RNG-stream seed (splitmix64
/// finalizer — distinct, well-spread streams even for adjacent ids).
fn host_stream_seed(seed: u64, host: u64) -> u64 {
    let mut z = seed ^ host.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pack an address into 48 bits: `ip << 16 | port`. The all-ones value can
/// never be produced (the top 16 bits are always zero), so it serves as the
/// empty-slot sentinel in [`AddrIndex`].
fn addr_key(addr: HostAddr) -> u64 {
    ((u32::from(addr.ip) as u64) << 16) | addr.port as u64
}

/// Empty-slot sentinel for [`AddrIndex`]: not a representable packed addr.
const ADDR_EMPTY: u64 = u64::MAX;

/// Splitmix64 finalizer over a packed address — the probe hash for
/// [`AddrIndex`].
fn addr_probe_hash(key: u64) -> u64 {
    let mut z = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `HostAddr → HostId`, open addressing over packed 48-bit keys. Replaces
/// the former `BTreeMap<HostAddr, HostId>`, whose every probe on the UDP
/// send and SYN routing paths walked a 6-byte-key comparison chain. The
/// table is probed and inserted into, **never iterated**, so its layout
/// cannot reach event ordering or any export.
struct AddrIndex {
    /// `(packed addr, host id)`; key `ADDR_EMPTY` marks a free slot.
    /// Power-of-two length, linear probing.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl AddrIndex {
    fn new() -> AddrIndex {
        AddrIndex {
            slots: vec![(ADDR_EMPTY, 0); 64],
            len: 0,
        }
    }

    // One probe per UDP send and per TCP SYN routed.
    fn get(&self, addr: HostAddr) -> Option<HostId> {
        let key = addr_key(addr);
        let mask = self.slots.len() - 1;
        let mut slot = (addr_probe_hash(key) as usize) & mask;
        loop {
            let (k, id) = self.slots[slot];
            if k == key {
                return Some(id as HostId);
            }
            if k == ADDR_EMPTY {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn contains(&self, addr: HostAddr) -> bool {
        self.get(addr).is_some()
    }

    /// Insert a fresh address (the caller has ruled out duplicates).
    fn insert(&mut self, addr: HostAddr, id: HostId) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let key = addr_key(addr);
        let mask = self.slots.len() - 1;
        let mut slot = (addr_probe_hash(key) as usize) & mask;
        while self.slots[slot].0 != ADDR_EMPTY {
            debug_assert_ne!(self.slots[slot].0, key, "duplicate address");
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = (key, id as u32);
        self.len += 1;
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(ADDR_EMPTY, 0); doubled]);
        let mask = self.slots.len() - 1;
        for (key, id) in old {
            if key == ADDR_EMPTY {
                continue;
            }
            let mut slot = (addr_probe_hash(key) as usize) & mask;
            while self.slots[slot].0 != ADDR_EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (key, id);
        }
    }
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

    fn clear(&mut self) {
        self.entries.clear();
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
    /// order a pure function of per-host event histories — the property
    /// that lets any shard count replay the same trace.
    origin: u32,
    /// Scheduler key of the event currently dispatching (0 outside
    /// dispatch), its own cause, and its causal depth — the provenance
    /// that `push` stamps onto children. `cur_cause` lets a dispatch
    /// that recorded no trace events forward its ancestor instead of
    /// itself, so recorded chains never dead-end on a silent dispatch.
    cur_key: u64,
    cur_cause: u64,
    cur_depth: u32,
    shards: Vec<Shard>,
    /// The minimum cross-host link latency: no push lands on another
    /// shard sooner (debug-asserted in [`NetSim::push`]), and the merge
    /// loop's barrier epochs are this long (see DESIGN.md § Sharded
    /// execution).
    lookahead_ms: u64,
    queue_depth_peak: u64,
    slots: Vec<Slot>,
    index: AddrIndex,
    conns: Vec<ConnEntry>,
    /// Recycled slab cells, reused LIFO.
    conn_free: Vec<u32>,
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
            shards: (0..config.shards.max(1))
                .map(|_| Shard {
                    queue: EventQueue::new(),
                    events: 0,
                })
                .collect(),
            lookahead_ms: crate::topology::min_link_latency_ms() as u64,
            queue_depth_peak: 0,
            slots: Vec::new(),
            index: AddrIndex::new(),
            conns: Vec::new(),
            conn_free: Vec::new(),
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
        assert!(!self.index.contains(addr), "address {addr} already in use");
        let id = self.slots.len();
        self.slots.push(Slot {
            host: Some(host),
            addr,
            meta,
            alive: false,
            shard: (id % self.shards.len()) as u32,
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

    /// Number of scheduler shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Events dispatched per shard (load-balance diagnostics; the sum
    /// equals [`NetSim::events_processed`]). Deliberately an API rather
    /// than an obs metric: per-shard metric names would make exports
    /// depend on the shard count and break trace invariance.
    pub fn shard_event_counts(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.events).collect()
    }

    /// Reassign a host to a scheduler shard. Call before scheduling
    /// anything for the host — events already queued stay on the queue
    /// they were pushed to.
    pub fn set_host_shard(&mut self, host: HostId, shard: usize) {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        self.slots[host].shard = shard as u32;
    }

    /// Queue `ev` for `owner` at absolute time `at`.
    ///
    /// The sort key encodes the *pushing* context, not the receiver: keys
    /// minted outside any dispatch use the low 32-bit `ext_seq` range;
    /// keys minted while host `h`'s event dispatches are
    /// `(h + 1) << 32 | slot counter`. Same-time events therefore order
    /// by (external pushes first, then by pushing host, then by that
    /// host's own push order) — a pure function of per-host histories,
    /// identical under any shard count.
    /// Nothing is scheduled into the past: `at` is clamped up to `now`,
    /// and a clamp firing in a debug build is a world-builder bug.
    // Every scheduled event funnels through here.
    fn push(&mut self, at: u64, owner: HostId, ev: Ev) {
        debug_assert!(at >= self.now, "push into the past: {at} < {}", self.now);
        let at = at.max(self.now);
        if let Some(id) = ev.conn_ref() {
            let e = &mut self.conns[conn_idx(id)];
            debug_assert_eq!(e.generation, conn_gen(id), "pushing event for a stale conn");
            e.pending += 1;
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
        let sh = self.slots[owner].shard as usize;
        debug_assert!(
            self.origin == 0
                || self.slots[(self.origin - 1) as usize].shard as usize == sh
                || at >= self.now + self.lookahead_ms,
            "cross-shard push inside the lookahead window (at={at}, now={})",
            self.now
        );
        // Provenance: the nearest *traced* ancestor is the cause — a
        // pushing dispatch that recorded no trace events forwards its own
        // cause unchanged, so every recorded `cause` resolves within the
        // exported trace. Depth counts traced hops from an external root.
        // Whether a dispatch traced anything is a pure function of its
        // event history, so the stamps stay shard-invariant.
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
        self.shards[sh].queue.push(at, key, (owner, prov, ev));
    }

    /// One-way latency from `a` to `b`; the jitter draw comes from
    /// `draw`'s stream — always the owner of the event being dispatched,
    /// so the draw sequence is shard-count-invariant.
    fn one_way_latency(&mut self, draw: HostId, a: HostId, b: HostId) -> u64 {
        let base = latency_between(self.slots[a].meta.region, self.slots[b].meta.region) as u64;
        let jitter = if self.config.jitter_ms > 0 {
            self.slots[draw].rng.gen_range(0..self.config.jitter_ms) as u64
        } else {
            0
        };
        (base + jitter).max(1)
    }

    /// Run until every queue is empty or simulated time exceeds
    /// `until_ms`.
    // The main event loop: every simulated event funnels through here.
    pub fn run_until(&mut self, until_ms: u64) {
        obs::profile::run_mark_start();
        if self.shards.len() == 1 {
            // Single-shard fast path: no merge bookkeeping at all.
            while let Some((at, key, (owner, prov, ev))) =
                self.shards[0].queue.pop_at_most(until_ms)
            {
                self.dispatch_at(at, key, 0, owner, prov, ev);
            }
        } else {
            self.run_sharded(until_ms);
        }
        self.now = self.now.max(until_ms);
        obs::profile::run_mark_end();
    }

    /// `((at, key), shard)` of the earliest pending event on any shard.
    fn earliest(&self) -> Option<((u64, u64), usize)> {
        let heads = self.shards.iter().enumerate();
        heads.filter_map(|(i, s)| Some((s.queue.peek()?, i))).min()
    }

    /// The sharded merge loop: a k-way merge of the shards' queues,
    /// dispatching the globally minimal `(at, key)` each step — exactly
    /// what the single queue does, so the trace is identical by
    /// construction. Barrier epochs one lookahead long mark where
    /// observability folds its pending counters and the profiler charges
    /// barrier stall; the dispatch order does not depend on them. They
    /// are what threads will need (ROADMAP item 1b): no push lands on
    /// another shard inside the epoch it was made in.
    fn run_sharded(&mut self, until_ms: u64) {
        loop {
            // Barrier: fold at a deterministic point, then pick the next
            // epoch. The profiler mark is wall-clock only, quarantined
            // from sim state.
            obs::fold_pending();
            obs::profile::barrier_mark(self.shards.len());
            let Some(((epoch_start, _), _)) = self.earliest() else {
                break;
            };
            if epoch_start > until_ms {
                break;
            }
            let epoch_end = (epoch_start + self.lookahead_ms).min(until_ms + 1);
            while let Some((_, winner)) = self.earliest() {
                let queue = &mut self.shards[winner].queue;
                let Some((at, key, (owner, prov, ev))) = queue.pop_at_most(epoch_end - 1) else {
                    break;
                };
                self.dispatch_at(at, key, winner, owner, prov, ev);
            }
        }
    }

    /// Per-event bookkeeping shared by the single- and sharded loops:
    /// clock, depth gauge, obs counters, provenance bracketing, profiler
    /// timing, origin bracketing, and the pending-count decrement that
    /// may recycle a connection cell.
    fn dispatch_at(&mut self, at: u64, key: u64, shard: usize, owner: HostId, prov: Prov, ev: Ev) {
        self.now = at;
        let depth = 1 + self.shards.iter().map(|s| s.queue.len()).sum::<usize>() as u64;
        self.queue_depth_peak = self.queue_depth_peak.max(depth);
        // Observability is pure: it reads the scheduler state but never
        // touches a sim RNG or a queue, so instrumented and
        // uninstrumented runs execute identical event sequences. All
        // per-event counters go through interned handles — no string
        // work on this path.
        obs::set_now(at);
        obs::set_cause(key, prov.cause, prov.depth);
        obs::gauge_max_id(self.ids.queue_depth_peak, depth);
        obs::counter_add_id(self.ids.events_total, 1);
        obs::counter_add_id(ev.obs_id(&self.ids), 1);
        let pinned = ev.conn_ref();
        let kind_idx = ev.kind_idx();
        self.cur_key = key;
        self.cur_cause = prov.cause;
        self.cur_depth = prov.depth;
        self.origin = owner as u32 + 1;
        let timer = obs::profile::dispatch_start();
        self.dispatch(ev);
        obs::profile::dispatch_end(
            timer,
            shard,
            kind_idx,
            EV_KIND_NAMES[kind_idx],
            owner as u64,
        );
        self.origin = 0;
        self.cur_key = 0;
        self.cur_cause = 0;
        self.cur_depth = 0;
        obs::set_cause(0, 0, 0);
        self.events_processed += 1;
        self.shards[shard].events += 1;
        if let Some(id) = pinned {
            self.conn_event_drained(id);
        }
    }

    /// Un-pin a connection after its event dispatched; recycle the cell
    /// once the connection is Closed with nothing left in flight.
    /// Freeing bumps the generation, so any id a host still holds goes
    /// stale rather than aliasing the next tenant.
    fn conn_event_drained(&mut self, id: ConnId) {
        let idx = conn_idx(id);
        let e = &mut self.conns[idx];
        if e.generation != conn_gen(id) {
            return;
        }
        e.pending -= 1;
        if e.pending == 0 && e.info.state == ConnState::Closed {
            e.generation = e.generation.wrapping_add(1);
            self.conn_free.push(idx as u32);
        }
    }

    /// Gen-checked read of a connection; stale or garbage ids yield
    /// `None`.
    fn conn(&self, id: ConnId) -> Option<&ConnInfo> {
        self.conns
            .get(conn_idx(id))
            .filter(|e| e.generation == conn_gen(id))
            .map(|e| &e.info)
    }

    /// Gen-checked mutable read of a connection.
    fn conn_mut(&mut self, id: ConnId) -> Option<&mut ConnInfo> {
        self.conns
            .get_mut(conn_idx(id))
            .filter(|e| e.generation == conn_gen(id))
            .map(|e| &mut e.info)
    }

    /// The host that receives a conn-stream event — used to route the
    /// event to a shard and to attribute its RNG draws. Only valid ids
    /// reach this (push sites hold a live connection).
    fn conn_event_owner(&self, conn: ConnId, to_initiator: bool) -> HostId {
        let c = &self.conns[conn_idx(conn)].info;
        if to_initiator {
            c.initiator
        } else {
            c.acceptor.unwrap_or(c.initiator)
        }
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
                    self.slots[host].nat.clear();
                    // Close all of its live connections toward the peers.
                    // The per-slot index holds exactly this host's
                    // established connections; sorting keeps the close
                    // order independent of link/unlink history.
                    let mut dead: Vec<(ConnId, bool)> = self.slots[host]
                        .live_conns
                        .iter()
                        .map(|&id| (id, self.conns[conn_idx(id)].info.initiator != host))
                        .collect();
                    dead.sort_unstable();
                    for (conn, to_initiator) in dead {
                        let Some(c) = self.conn_mut(conn) else {
                            continue;
                        };
                        debug_assert_eq!(c.state, ConnState::Established);
                        c.state = ConnState::Closed;
                        self.unlink_conn(conn);
                        self.tcp.resets += 1;
                        obs::counter_add_id(self.ids.tcp_resets, 1);
                        let delay = self.conn_delay(conn);
                        let owner = self.conn_event_owner(conn, to_initiator);
                        self.push(self.now + delay, owner, Ev::TcpClose { conn, to_initiator });
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
                if !self.slots[to].alive {
                    self.udp_dropped += 1;
                    obs::counter_add_id(self.ids.udp_dropped, 1);
                    return;
                }
                // NAT: unreachable hosts accept only solicited datagrams.
                if !self.slots[to].meta.reachable {
                    let window = self.config.nat_window_ms;
                    let now = self.now;
                    if !self.slots[to].nat.solicited(from, now, window) {
                        self.udp_dropped += 1;
                        obs::counter_add_id(self.ids.udp_dropped, 1);
                        return;
                    }
                }
                self.with_host(to, |h, ctx| h.on_udp(ctx, from, &bytes));
            }
            Ev::TcpSyn { conn } => {
                let Some(c) = self.conn(conn).copied() else {
                    return;
                };
                let target = self.index.get(c.remote_addr);
                let blackholed =
                    self.config
                        .faults
                        .tcp_connect_blocked(self.now, c.local_addr, c.remote_addr);
                let ok = !blackholed
                    && match target {
                        Some(t) => self.slots[t].alive && self.slots[t].meta.reachable,
                        None => false,
                    };
                let delay = self.conn_delay(conn);
                if ok {
                    let t = target.unwrap();
                    // Refine RTT with the acceptor's actual region. The
                    // jitter draw belongs to the acceptor — the owner of
                    // this event.
                    let lat = self.one_way_latency(t, c.initiator, t);
                    if let Some(ci) = self.conn_mut(conn) {
                        ci.acceptor = Some(t);
                        ci.rtt_ms = (2 * lat) as u32;
                    }
                    let local = c.local_addr;
                    self.with_host(t, |h, ctx| {
                        h.on_tcp(ctx, TcpEvent::Incoming { conn, peer: local })
                    });
                }
                self.push(self.now + delay, c.initiator, Ev::TcpEstablish { conn, ok });
            }
            Ev::TcpEstablish { conn, ok } => {
                let Some(c) = self.conn(conn).copied() else {
                    return;
                };
                if c.state != ConnState::Dialing {
                    return;
                }
                if !self.slots[c.initiator].alive {
                    if let Some(ci) = self.conn_mut(conn) {
                        ci.state = ConnState::Closed;
                    }
                    return;
                }
                if ok {
                    if let Some(ci) = self.conn_mut(conn) {
                        ci.state = ConnState::Established;
                    }
                    self.link_conn(conn);
                    self.tcp.connects += 1;
                    obs::counter_add_id(self.ids.tcp_connects, 1);
                    let peer = c.remote_addr;
                    self.with_host(c.initiator, |h, ctx| {
                        h.on_tcp(ctx, TcpEvent::Connected { conn, peer })
                    });
                } else {
                    if let Some(ci) = self.conn_mut(conn) {
                        ci.state = ConnState::Closed;
                    }
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
                let Some(c) = self.conn(conn).copied() else {
                    return;
                };
                if c.state != ConnState::Established {
                    return;
                }
                let dest = if to_initiator {
                    Some(c.initiator)
                } else {
                    c.acceptor
                };
                let Some(dest) = dest else { return };
                if !self.slots[dest].alive {
                    return;
                }
                self.with_host(dest, |h, ctx| h.on_tcp(ctx, TcpEvent::Data { conn, bytes }));
            }
            Ev::TcpClose { conn, to_initiator } => {
                let Some(c) = self.conn(conn).copied() else {
                    return;
                };
                let dest = if to_initiator {
                    Some(c.initiator)
                } else {
                    c.acceptor
                };
                let Some(dest) = dest else { return };
                if !self.slots[dest].alive {
                    return;
                }
                self.with_host(dest, |h, ctx| h.on_tcp(ctx, TcpEvent::Closed { conn }));
            }
        }
    }

    // One-way delay for events on an established connection. Deliberately
    // jitter-free: TCP is an ordered stream, and per-event jitter could
    // deliver a Closed before the final Data segment (losing, e.g., a
    // DISCONNECT frame sent just before hangup). Path jitter is baked into
    // the connection's RTT when the SYN resolves. Only live ids reach
    // this, so the blind index is safe.
    fn conn_delay(&self, conn: ConnId) -> u64 {
        (self.conns[conn_idx(conn)].info.rtt_ms / 2).max(1) as u64
    }

    /// Record an established connection in both endpoints' live lists.
    fn link_conn(&mut self, conn: ConnId) {
        let c = self.conns[conn_idx(conn)].info;
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
        let c = self.conns[conn_idx(conn)].info;
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
        let Some(mut behaviour) = self.slots[host].host.take() else {
            return;
        };
        let local = self.slots[host].addr;
        let mut ctx = Ctx {
            now_ms: self.now,
            host,
            local,
            rng: &mut self.slots[host].rng,
            conn_entries: &self.conns,
            conn_free: &self.conn_free,
            actions: std::mem::take(&mut self.action_buf),
            new_conns: 0,
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
                        self.udp_dropped += 1;
                        obs::counter_add_id(self.ids.udp_dropped, 1);
                        continue;
                    }
                    let Some(dest) = self.index.get(to) else {
                        self.udp_dropped += 1;
                        obs::counter_add_id(self.ids.udp_dropped, 1);
                        continue;
                    };
                    let from = self.slots[host].addr;
                    let extra = if self.config.faults.is_empty() {
                        0
                    } else {
                        match self
                            .config
                            .faults
                            .udp_fate(now, from, to, &mut self.slots[host].rng)
                        {
                            UdpFate::Drop => {
                                self.udp_dropped += 1;
                                obs::counter_add_id(self.ids.udp_dropped, 1);
                                continue;
                            }
                            UdpFate::Deliver { extra_ms } => extra_ms,
                        }
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
                    // Estimate RTT with the local region twice until the SYN
                    // resolves the peer.
                    let lat = self.one_way_latency(host, host, host).max(1);
                    let info = ConnInfo {
                        initiator: host,
                        acceptor: None,
                        remote_addr: to,
                        local_addr: self.slots[host].addr,
                        state: ConnState::Dialing,
                        rtt_ms: (2 * lat) as u32,
                    };
                    // Mirror the preview walk in `Ctx::tcp_connect`: reuse
                    // the most recently freed cell, else extend the slab.
                    let idx = match self.conn_free.pop() {
                        Some(idx) => {
                            let e = &mut self.conns[idx as usize];
                            debug_assert_eq!(e.pending, 0);
                            e.info = info;
                            idx as usize
                        }
                        None => {
                            self.conns.push(ConnEntry {
                                generation: 0,
                                pending: 0,
                                info,
                            });
                            self.conns.len() - 1
                        }
                    };
                    let id = conn_pack(self.conns[idx].generation, idx);
                    debug_assert_eq!(id, conn, "conn id allocation out of sync");
                    let delay = self.conn_delay(id);
                    let owner = self.index.get(to).unwrap_or(host);
                    self.push(self.now + delay, owner, Ev::TcpSyn { conn: id });
                }
                Action::TcpSend { conn, bytes } => {
                    let Some(c) = self.conn(conn).copied() else {
                        continue;
                    };
                    if c.state != ConnState::Established {
                        continue;
                    }
                    let to_initiator = c.initiator != host;
                    let mut bytes = bytes;
                    let mut extra = 0;
                    if !self.config.faults.is_empty() {
                        match self.config.faults.tcp_fate(
                            self.now,
                            c.local_addr,
                            c.remote_addr,
                            &mut bytes,
                            &mut self.slots[host].rng,
                        ) {
                            TcpFate::Drop => {
                                self.tcp.segments_dropped += 1;
                                obs::counter_add_id(self.ids.tcp_segments_dropped, 1);
                                continue;
                            }
                            TcpFate::Reset => {
                                if let Some(ci) = self.conn_mut(conn) {
                                    ci.state = ConnState::Closed;
                                }
                                self.unlink_conn(conn);
                                self.tcp.resets += 1;
                                obs::counter_add_id(self.ids.tcp_resets, 1);
                                let delay = self.conn_delay(conn);
                                for to_initiator in [true, false] {
                                    let owner = self.conn_event_owner(conn, to_initiator);
                                    self.push(
                                        self.now + delay,
                                        owner,
                                        Ev::TcpClose { conn, to_initiator },
                                    );
                                }
                                continue;
                            }
                            TcpFate::Deliver { extra_ms } => extra = extra_ms,
                        }
                    }
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
                    let Some(c) = self.conn(conn).copied() else {
                        continue;
                    };
                    if c.state == ConnState::Established || c.state == ConnState::Dialing {
                        let was_established = c.state == ConnState::Established;
                        let to_initiator = c.initiator != host;
                        if let Some(ci) = self.conn_mut(conn) {
                            ci.state = ConnState::Closed;
                        }
                        if was_established {
                            self.unlink_conn(conn);
                        }
                        let delay = self.conn_delay(conn);
                        let owner = self.conn_event_owner(conn, to_initiator);
                        self.push(self.now + delay, owner, Ev::TcpClose { conn, to_initiator });
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

    /// Serialize the engine's complete dynamic state — clock, counters,
    /// fault schedule, connection slab, per-host state (RNG stream, NAT
    /// table, liveness, behaviour state via [`Host::save_state`]) and
    /// every pending scheduler event with its original key and
    /// provenance — into a versioned byte snapshot.
    ///
    /// Static structure (addresses, non-reachability metadata, the
    /// address index, shard topology, interned metric handles) is
    /// deliberately **not** serialized: the restore target is a freshly
    /// rebuilt *shell* world containing the same hosts in the same
    /// order, and [`NetSim::restore`] overwrites only the dynamic parts.
    /// Must be called between runs (never from inside a host callback).
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        debug_assert_eq!(self.origin, 0, "snapshot during dispatch");
        let mut w = SnapWriter::with_header(SNAP_MAGIC, SNAP_VERSION);
        w.u64(self.now);
        w.u32(self.ext_seq);
        w.u64(self.events_processed);
        w.u64(self.udp_sent);
        w.u64(self.udp_dropped);
        self.tcp.snap(&mut w);
        w.u64(self.queue_depth_peak);
        // Fault windows can be installed mid-run via `add_fault`, so the
        // schedule is state, not rebuildable configuration.
        self.config.faults.snap(&mut w);
        // Connection slab and free list, order-exact: `Ctx::tcp_connect`
        // previews the free list top-down, so its LIFO order is
        // observable and must survive the round trip.
        self.conns.snap(&mut w);
        self.conn_free.snap(&mut w);
        w.usize(self.slots.len());
        for slot in &self.slots {
            w.bool(slot.alive);
            w.u32(slot.shard);
            slot.rng.state().snap(&mut w);
            w.u32(slot.next_key);
            w.bool(slot.meta.reachable);
            slot.nat.entries.snap(&mut w);
            slot.live_conns.snap(&mut w);
            w.bool(slot.host.is_some());
            if let Some(h) = &slot.host {
                w.section(|w| h.save_state(w))?;
            }
        }
        // Shards: dispatch counters plus every pending event, in dispatch
        // order.
        w.usize(self.shards.len());
        for shard in &self.shards {
            w.u64(shard.events);
            w.usize(shard.queue.len());
            for (at, key, (owner, prov, ev)) in shard.queue.sorted() {
                w.u64(at);
                w.u64(key);
                w.usize(*owner);
                prov.snap(&mut w);
                ev.snap(&mut w);
            }
        }
        Ok(w.finish())
    }

    /// Restore a [`NetSim::snapshot`] into this simulator.
    ///
    /// `self` must be a freshly rebuilt shell: the same hosts registered
    /// in the same order (same addresses, metadata, shard layout) with
    /// behaviours re-created from their static configuration, not yet
    /// run. Everything dynamic — clock, counters, RNG streams, the
    /// connection slab, pending events (anything the shell's own world
    /// building scheduled is wiped) and behaviour state via
    /// [`Host::load_state`] — is overwritten from the snapshot. Events
    /// are re-pushed with their original keys, bypassing key minting
    /// and pending-count accounting (both were already captured), so a
    /// resumed run dispatches the exact sequence the original would
    /// have.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::with_header(bytes, SNAP_MAGIC, SNAP_VERSION)?;
        self.now = r.u64()?;
        self.ext_seq = r.u32()?;
        self.events_processed = r.u64()?;
        self.udp_sent = r.u64()?;
        self.udp_dropped = r.u64()?;
        self.tcp = Snap::unsnap(&mut r)?;
        self.queue_depth_peak = r.u64()?;
        self.config.faults = Snap::unsnap(&mut r)?;
        self.conns = Snap::unsnap(&mut r)?;
        self.conn_free = Snap::unsnap(&mut r)?;
        let n_conn_cells = self.conns.len();
        // A free cell is Closed with nothing in flight, and listed once: a
        // duplicate would hand one cell to two later dials.
        let mut listed = vec![false; n_conn_cells];
        let free = |e: &ConnEntry| e.info.state == ConnState::Closed && e.pending == 0;
        if !self.conn_free.iter().all(|&i| {
            self.conns.get(i as usize).is_some_and(free)
                && !std::mem::replace(&mut listed[i as usize], true)
        }) {
            return Err(SnapError::Corrupt("free-list entry is not a free cell"));
        }
        let n_slots = self.slots.len();
        if r.usize()? != n_slots {
            return Err(SnapError::Corrupt("host count differs from restore shell"));
        }
        if self
            .conns
            .iter()
            .any(|c| c.info.initiator >= n_slots || c.info.acceptor.is_some_and(|a| a >= n_slots))
        {
            return Err(SnapError::Corrupt("conn endpoint host out of range"));
        }
        let n_shards = self.shards.len();
        for (host, slot) in self.slots.iter_mut().enumerate() {
            slot.alive = r.bool()?;
            slot.shard = r.u32()?;
            if slot.shard as usize >= n_shards {
                return Err(SnapError::Corrupt("slot shard out of range"));
            }
            slot.rng = StdRng::from_state(Snap::unsnap(&mut r)?);
            slot.next_key = r.u32()?;
            slot.meta.reachable = r.bool()?;
            slot.nat.entries = Snap::unsnap(&mut r)?;
            if !slot.nat.entries.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(SnapError::Corrupt("NAT table keys not ascending"));
            }
            slot.live_conns = Snap::unsnap(&mut r)?;
            let live = |&id: &ConnId| {
                self.conns.get(conn_idx(id)).is_some_and(|e| {
                    conn_pack(e.generation, conn_idx(id)) == id
                        && e.info.state == ConnState::Established
                        && (e.info.initiator == host || e.info.acceptor == Some(host))
                })
            };
            if !slot.live_conns.iter().all(live) {
                return Err(SnapError::Corrupt("live conn is not this host's open conn"));
            }
            if r.bool()? {
                let state = r.bytes()?;
                let host = slot.host.as_mut().ok_or(SnapError::Corrupt(
                    "snapshot carries behaviour state for a removed host",
                ))?;
                host.load_state(state)?;
            } else {
                // The original's behaviour had been removed: so is the
                // shell's, or it would run where the original's did not.
                slot.host = None;
            }
        }
        if r.usize()? != n_shards {
            return Err(SnapError::Corrupt("shard count differs from restore shell"));
        }
        // A pending key must already have been minted, or a resumed run
        // could mint the same `(at, key)` twice.
        let minted = |key: u64| match (key >> 32) as usize {
            0 => key != 0 && key < self.ext_seq as u64,
            origin => origin <= n_slots && (key as u32) < self.slots[origin - 1].next_key,
        };
        for shard in &mut self.shards {
            shard.events = r.u64()?;
            // Wipe whatever the shell's world building scheduled; the
            // snapshot's pending events replace it wholesale.
            shard.queue = EventQueue::new();
            let mut prev = None;
            for _ in 0..r.usize()? {
                let at = r.u64()?;
                let key = r.u64()?;
                let owner = r.usize()?;
                let prov = Prov::unsnap(&mut r)?;
                let ev = Ev::unsnap(&mut r)?;
                // Dispatch order is the one order a snapshot writes, so
                // a restored image is the one its re-snapshot writes.
                if prev >= Some((at, key)) {
                    return Err(SnapError::Corrupt("pending events not in dispatch order"));
                }
                prev = Some((at, key));
                if !minted(key) {
                    return Err(SnapError::Corrupt("pending event key was never minted"));
                }
                if owner >= n_slots || ev.host_ref().is_some_and(|h| h >= n_slots) {
                    return Err(SnapError::Corrupt("event host out of range"));
                }
                if ev.conn_ref().is_some_and(|id| conn_idx(id) >= n_conn_cells) {
                    return Err(SnapError::Corrupt("event references conn out of range"));
                }
                shard.queue.push(at, key, (owner, prov, ev));
            }
        }
        r.finish()?;
        self.origin = 0;
        self.cur_key = 0;
        self.cur_cause = 0;
        self.cur_depth = 0;
        self.action_buf.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Region;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<String>>>;

    /// The oracle ROADMAP item 1b faces: the engine state that may move to
    /// a worker thread today. Progress on 1b is "move a type into this list
    /// until it compiles". Not `Send` yet, and why:
    ///
    /// * `Payload` — `data: Rc<[u8]>`; the plan swaps the `Rc` for `Arc`;
    /// * `Ev` — carries a `Payload` in `Udp` and `TcpData`;
    /// * `Slot` — `host: Option<Box<dyn Host>>`, and `Host` has no `Send`
    ///   bound: the `ethpop::EthNode` behind it holds the `Rc<[NodeRecord]>`
    ///   and `Rc<[Capability]>` flyweights.
    #[test]
    fn plain_shard_state_is_send() {
        fn is_send<T: Send>() {}
        is_send::<ConnInfo>();
        is_send::<ConnEntry>();
        is_send::<Prov>();
        is_send::<NatTable>();
        is_send::<HostAddr>();
        is_send::<HostMeta>();
    }

    /// A scriptable host for engine tests.
    struct Probe {
        log: Log,
        name: &'static str,
        /// Peer to ping over UDP at start.
        udp_target: Option<HostAddr>,
        /// Peer to dial over TCP at start.
        tcp_target: Option<HostAddr>,
        /// Echo received UDP back to the sender.
        echo: bool,
        /// Bytes to send once a TCP conn establishes.
        tcp_payload: Option<Vec<u8>>,
    }

    impl Probe {
        fn new(name: &'static str, log: Log) -> Probe {
            Probe {
                log,
                name,
                udp_target: None,
                tcp_target: None,
                echo: false,
                tcp_payload: None,
            }
        }
        fn logit(&self, s: String) {
            // Mirror every callback into the obs trace (no-op without a
            // recorder) so provenance tests see dispatch-stamped events.
            obs::event("probe.cb", &[]);
            self.log.borrow_mut().push(format!("{} {}", self.name, s));
        }
    }

    impl Host for Probe {
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
        fn save_state(&self, _: &mut SnapWriter) -> Result<(), SnapError> {
            Ok(())
        }
        fn load_state(&mut self, _: &[u8]) -> Result<(), SnapError> {
            Ok(())
        }

        fn on_start(&mut self, ctx: &mut Ctx) {
            self.logit(format!("start@{}", ctx.now_ms));
            if let Some(t) = self.udp_target {
                ctx.send_udp(t, b"hello".to_vec());
            }
            if let Some(t) = self.tcp_target {
                let conn = ctx.tcp_connect(t);
                self.logit(format!("dial conn={conn}"));
            }
        }
        fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
            self.logit(format!(
                "udp@{} from {} len={}",
                ctx.now_ms,
                from,
                datagram.len()
            ));
            if self.echo {
                ctx.send_udp(from, datagram.to_vec());
            }
        }
        fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
            match event {
                TcpEvent::Connected { conn, .. } => {
                    self.logit(format!("connected@{} rtt={}", ctx.now_ms, ctx.rtt_ms(conn)));
                    if let Some(p) = self.tcp_payload.take() {
                        ctx.tcp_send(conn, p);
                    }
                }
                TcpEvent::ConnectFailed { .. } => self.logit(format!("connfail@{}", ctx.now_ms)),
                TcpEvent::Incoming { .. } => self.logit(format!("incoming@{}", ctx.now_ms)),
                TcpEvent::Data { bytes, .. } => {
                    self.logit(format!("data@{} len={}", ctx.now_ms, bytes.len()))
                }
                TcpEvent::Closed { .. } => self.logit(format!("closed@{}", ctx.now_ms)),
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            self.logit(format!("timer@{} token={token}", ctx.now_ms));
        }
        fn on_stop(&mut self, ctx: &mut Ctx) {
            self.logit(format!("stop@{}", ctx.now_ms));
        }
    }

    fn meta(reachable: bool) -> HostMeta {
        HostMeta {
            country: "US",
            asn: "Test",
            region: Region::NorthAmerica,
            reachable,
        }
    }

    fn addr(last: u8) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 0, 0, last), 30303)
    }

    fn lossless() -> SimConfig {
        SimConfig {
            udp_loss: 0.0,
            jitter_ms: 0,
            ..SimConfig::default()
        }
    }

    /// Two hosts ping-pong UDP on jittered timers (exercising the per-host
    /// RNG streams, NAT tables, and the loss coin), with a counter in
    /// behaviour state.
    struct Ticker {
        log: Log,
        name: &'static str,
        count: u32,
        peer: HostAddr,
    }

    impl Ticker {
        fn logit(&self, s: String) {
            self.log.borrow_mut().push(format!("{} {}", self.name, s));
        }
    }

    impl Host for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(100, 1);
        }
        fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
            self.logit(format!(
                "udp@{} from {} len={}",
                ctx.now_ms,
                from,
                datagram.len()
            ));
        }
        fn on_tcp(&mut self, _ctx: &mut Ctx, _event: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            self.count += 1;
            self.logit(format!("tick@{} n={}", ctx.now_ms, self.count));
            ctx.send_udp(self.peer, vec![0u8; self.count as usize % 7 + 1]);
            let gap = 90 + ctx.rng().gen_range(0..20) as u64;
            ctx.set_timer(gap, 1);
        }
        fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
            w.u32(self.count);
            Ok(())
        }
        fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
            let mut r = SnapReader::new(bytes);
            self.count = r.u32()?;
            r.finish()
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// The two-[`Ticker`] world, both started at 0. Default config:
    /// jitter and UDP loss on, so RNG streams are consulted on every
    /// delivery.
    fn ticker_world(log: &Log) -> NetSim {
        let mut sim = NetSim::new(SimConfig::default());
        for (name, me, peer) in [("a", 1, 2), ("b", 2, 1)] {
            let ticker = Ticker {
                log: log.clone(),
                name,
                count: 0,
                peer: addr(peer),
            };
            let host = sim.add_host(addr(me), meta(true), Box::new(ticker));
            sim.schedule_start(host, 0);
        }
        sim
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Running to T, snapshotting, restoring into a fresh shell, and
        // resuming to 2T must replay exactly what an uninterrupted run to
        // 2T does.
        let full_log: Log = Rc::default();
        let mut full = ticker_world(&full_log);
        full.run_until(10_000);

        // Run to T, snapshot, restore into a fresh shell, resume to 2T.
        let first_log: Log = Rc::default();
        let mut first = ticker_world(&first_log);
        first.run_until(5_000);
        let snap = first.snapshot().expect("snapshot");
        let resumed_log: Log = Rc::default();
        let mut resumed = ticker_world(&resumed_log);
        resumed.restore(&snap).expect("restore");
        resumed.run_until(10_000);

        let mut joined = first_log.borrow().clone();
        joined.extend(resumed_log.borrow().iter().cloned());
        assert_eq!(joined, *full_log.borrow());
        assert_eq!(resumed.events_processed(), full.events_processed());
        assert_eq!(resumed.udp_counters(), full.udp_counters());
        assert_eq!(resumed.now_ms(), full.now_ms());
        // A second snapshot of the resumed world equals a snapshot of the
        // uninterrupted world: the dynamic state converged byte-for-byte.
        assert_eq!(
            resumed.snapshot().expect("resnap"),
            full.snapshot().expect("resnap")
        );
    }

    /// Regression: an image whose slot carries no behaviour (it was
    /// removed before the snapshot) used to restore `Ok` and leave the
    /// shell's fresh behaviour in place, so the resumed world ran a host
    /// the original no longer did.
    #[test]
    fn restore_removes_a_behaviour_the_image_says_was_removed() {
        let log: Log = Rc::default();
        let mut original = ticker_world(&log);
        original.run_until(5_000);
        assert!(original.remove_host_behaviour(1).is_some());
        let snap = original.snapshot().expect("snapshot");
        let mut resumed = ticker_world(&log);
        resumed.restore(&snap).expect("restore");
        original.run_until(10_000);
        resumed.run_until(10_000);
        assert_eq!(resumed.events_processed(), original.events_processed());
        assert_eq!(resumed.udp_counters(), original.udp_counters());
        assert_eq!(
            resumed.snapshot().expect("resnap"),
            original.snapshot().expect("resnap")
        );
    }

    #[test]
    fn udp_delivery_with_latency() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.udp_target = Some(addr(2));
        let b = {
            let mut b = Probe::new("b", log.clone());
            b.echo = true;
            b
        };
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(10_000);
        let log = log.borrow();
        // a sends at 0; intra-region base latency is 15ms
        assert!(
            log.iter()
                .any(|l| l == "b udp@15 from 10.0.0.1:30303 len=5"),
            "{log:?}"
        );
        // echo arrives back at 30
        assert!(
            log.iter()
                .any(|l| l == "a udp@30 from 10.0.0.2:30303 len=5"),
            "{log:?}"
        );
    }

    #[test]
    fn udp_to_nated_host_dropped_until_solicited() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.udp_target = Some(addr(2)); // a is NATed and sends first
        let mut b = Probe::new("b", log.clone());
        b.echo = true;
        let ha = sim.add_host(addr(1), meta(false), Box::new(a)); // unreachable
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(10_000);
        // The echo *is* delivered because a's outbound punched a pinhole.
        assert!(log.borrow().iter().any(|l| l.starts_with("a udp@")));

        // Fresh sim: b sends unsolicited to NATed a → dropped.
        let log2: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let a = Probe::new("a", log2.clone());
        let mut b = Probe::new("b", log2.clone());
        b.udp_target = Some(addr(1));
        let ha = sim.add_host(addr(1), meta(false), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(10_000);
        assert!(
            !log2.borrow().iter().any(|l| l.starts_with("a udp@")),
            "{:?}",
            log2.borrow()
        );
        let (_, dropped) = sim.udp_counters();
        assert_eq!(dropped, 1);
    }

    #[test]
    fn tcp_connect_send_close() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.tcp_target = Some(addr(2));
        a.tcp_payload = Some(vec![0u8; 100]);
        let b = Probe::new("b", log.clone());
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(10_000);
        let log = log.borrow();
        assert!(log.iter().any(|l| l.starts_with("b incoming@")), "{log:?}");
        assert!(log.iter().any(|l| l.starts_with("a connected@")), "{log:?}");
        assert!(
            log.iter()
                .any(|l| l.starts_with("b data@") && l.ends_with("len=100")),
            "{log:?}"
        );
        // RTT is observable and sane (2 × 15ms intra-region)
        assert!(log.iter().any(|l| l.contains("rtt=30")), "{log:?}");
    }

    #[test]
    fn tcp_connect_to_dead_or_unreachable_fails() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.tcp_target = Some(addr(9)); // nobody there
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        sim.schedule_start(ha, 0);
        sim.run_until(10_000);
        assert!(log.borrow().iter().any(|l| l.starts_with("a connfail@")));

        let log2: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log2.clone());
        a.tcp_target = Some(addr(2));
        let b = Probe::new("b", log2.clone());
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(false), Box::new(b)); // NATed: no inbound TCP
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(10_000);
        assert!(log2.borrow().iter().any(|l| l.starts_with("a connfail@")));
    }

    #[test]
    fn stop_closes_connections_and_drops_timers() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.tcp_target = Some(addr(2));
        let b = Probe::new("b", log.clone());
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.schedule_stop(hb, 5_000);
        sim.run_until(20_000);
        let log = log.borrow();
        assert!(log.iter().any(|l| l == "b stop@5000"), "{log:?}");
        assert!(log.iter().any(|l| l.starts_with("a closed@")), "{log:?}");
        assert!(!sim.is_alive(hb));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerHost {
            log: Log,
        }
        impl Host for TimerHost {
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }

            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            }
            fn on_udp(&mut self, _: &mut Ctx, _: HostAddr, _: &[u8]) {}
            fn on_tcp(&mut self, _: &mut Ctx, _: TcpEvent) {}
            fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
                self.log
                    .borrow_mut()
                    .push(format!("t{token}@{}", ctx.now_ms));
            }
        }
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let h = sim.add_host(
            addr(1),
            meta(true),
            Box::new(TimerHost { log: log.clone() }),
        );
        sim.schedule_start(h, 0);
        sim.run_until(1_000);
        assert_eq!(*log.borrow(), vec!["t1@100", "t2@200", "t3@300"]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (u64, u64, u64) {
            let mut sim = NetSim::new(SimConfig {
                seed,
                udp_loss: 0.3,
                jitter_ms: 10,
                ..SimConfig::default()
            });
            let log: Log = Rc::default();
            let mut hosts = Vec::new();
            for i in 1..=10u8 {
                let mut p = Probe::new("x", log.clone());
                p.echo = true;
                p.udp_target = Some(addr((i % 10) + 1));
                hosts.push(sim.add_host(addr(i), meta(true), Box::new(p)));
            }
            for h in &hosts {
                sim.schedule_start(*h, 0);
            }
            sim.run_until(3_000);
            let (s, d) = sim.udp_counters();
            (sim.events_processed(), s, d)
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // different seed, different loss pattern
    }

    #[test]
    fn duplicate_address_panics() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        sim.add_host(addr(1), meta(true), Box::new(Probe::new("a", log.clone())));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_host(addr(1), meta(true), Box::new(Probe::new("b", log)));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn tcp_counters_track_connects_bytes_and_death_resets() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.tcp_target = Some(addr(2));
        a.tcp_payload = Some(vec![0u8; 100]);
        let b = Probe::new("b", log.clone());
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(2_000);
        let c = sim.tcp_counters();
        assert_eq!(c.connects, 1);
        assert_eq!(c.bytes, 100);
        assert_eq!(c.resets, 0);
        assert_eq!(c.segments_dropped, 0);
        // Killing b while the connection is up counts as an abortive reset.
        sim.schedule_stop(hb, 3_000);
        sim.run_until(5_000);
        assert_eq!(sim.tcp_counters().resets, 1);
    }

    #[test]
    fn udp_burst_loss_window_only_drops_inside_window() {
        // a pings b every 100ms via a timer; a 0.999-loss window covers
        // [1000, 2000). Outside the window everything is delivered.
        struct Pinger {
            log: Log,
            target: HostAddr,
        }
        impl Host for Pinger {
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(100, 1);
            }
            fn on_udp(&mut self, _: &mut Ctx, _: HostAddr, _: &[u8]) {}
            fn on_tcp(&mut self, _: &mut Ctx, _: TcpEvent) {}
            fn on_timer(&mut self, ctx: &mut Ctx, _: u64) {
                ctx.send_udp(self.target, b"ping".to_vec());
                ctx.set_timer(100, 1);
            }
            fn on_stop(&mut self, _: &mut Ctx) {
                self.log.borrow_mut().clear();
            }
        }
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut b = Probe::new("b", log.clone());
        b.echo = false;
        let ha = sim.add_host(
            addr(1),
            meta(true),
            Box::new(Pinger {
                log: log.clone(),
                target: addr(2),
            }),
        );
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.add_fault(crate::faults::FaultWindow {
            link: crate::faults::LinkSelector::Pair(addr(1), addr(2)),
            from_ms: 1_000,
            until_ms: 2_000,
            fault: crate::faults::Fault::UdpLoss(0.999),
        });
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(3_000);
        let log = log.borrow();
        let arrivals_in = |lo: u64, hi: u64| {
            log.iter()
                .filter(|l| {
                    l.starts_with("b udp@")
                        && l.split('@')
                            .nth(1)
                            .and_then(|r| r.split(' ').next())
                            .and_then(|t| t.parse::<u64>().ok())
                            .map(|t| t >= lo && t < hi)
                            .unwrap_or(false)
                })
                .count()
        };
        // ~10 sends per second; the window eats essentially all of them.
        assert!(arrivals_in(0, 1_000) >= 9, "{log:?}");
        assert!(arrivals_in(1_020, 2_000) <= 1, "{log:?}");
        assert!(arrivals_in(2_000, 3_000) >= 9, "{log:?}");
    }

    #[test]
    fn blackhole_fails_tcp_connects_and_reset_kills_streams() {
        // Blackhole window: the dial fails even though b is alive.
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.tcp_target = Some(addr(2));
        let b = Probe::new("b", log.clone());
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.add_fault(crate::faults::FaultWindow {
            link: crate::faults::LinkSelector::Host(addr(2)),
            from_ms: 0,
            until_ms: 60_000,
            fault: crate::faults::Fault::Blackhole,
        });
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(5_000);
        assert!(
            log.borrow().iter().any(|l| l.starts_with("a connfail@")),
            "{:?}",
            log.borrow()
        );

        // Reset window: the connection establishes, then the first data
        // segment resets it — both sides observe Closed.
        let log2: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log2.clone());
        a.tcp_target = Some(addr(2));
        a.tcp_payload = Some(vec![7u8; 64]);
        let b = Probe::new("b", log2.clone());
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.add_fault(crate::faults::FaultWindow {
            link: crate::faults::LinkSelector::Any,
            // TcpReset only affects data segments, not the establishment
            // handshake, so the window can cover the whole run.
            from_ms: 0,
            until_ms: 60_000,
            fault: crate::faults::Fault::TcpReset,
        });
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(5_000);
        let log2 = log2.borrow();
        assert!(
            log2.iter().any(|l| l.starts_with("a connected@")),
            "{log2:?}"
        );
        assert!(!log2.iter().any(|l| l.starts_with("b data@")), "{log2:?}");
        assert!(log2.iter().any(|l| l.starts_with("a closed@")), "{log2:?}");
        assert!(log2.iter().any(|l| l.starts_with("b closed@")), "{log2:?}");
        assert_eq!(sim.tcp_counters().resets, 1);
    }

    #[test]
    fn truncation_shortens_delivered_segments() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.tcp_target = Some(addr(2));
        a.tcp_payload = Some(vec![7u8; 64]);
        let b = Probe::new("b", log.clone());
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.add_fault(crate::faults::FaultWindow {
            link: crate::faults::LinkSelector::Any,
            from_ms: 0,
            until_ms: 60_000,
            fault: crate::faults::Fault::TcpTruncate(16),
        });
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(5_000);
        assert!(
            log.borrow()
                .iter()
                .any(|l| l.starts_with("b data@") && l.ends_with("len=16")),
            "{:?}",
            log.borrow()
        );
        assert_eq!(sim.tcp_counters().bytes, 16);
    }

    #[test]
    fn latency_spike_delays_udp() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.udp_target = Some(addr(2));
        let b = Probe::new("b", log.clone());
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.add_fault(crate::faults::FaultWindow {
            link: crate::faults::LinkSelector::Any,
            from_ms: 0,
            until_ms: 60_000,
            fault: crate::faults::Fault::LatencySpike(500),
        });
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(5_000);
        // Base intra-region latency is 15ms; the spike pushes it to 515.
        assert!(
            log.borrow().iter().any(|l| l.starts_with("b udp@515 ")),
            "{:?}",
            log.borrow()
        );
    }

    #[test]
    fn nat_flap_toggles_reachability_on_schedule() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let a = Probe::new("a", log.clone());
        let mut b = Probe::new("b", log.clone());
        b.udp_target = None;
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        // One flap: unreachable during [1000, 2000).
        sim.nat_flap(ha, 1_000, 1_000, 1);
        sim.run_until(500);
        assert!(sim.host_meta(ha).reachable);
        sim.run_until(1_500);
        assert!(!sim.host_meta(ha).reachable);
        sim.run_until(2_500);
        assert!(sim.host_meta(ha).reachable);
    }

    #[test]
    fn churn_burst_takes_hosts_down_together() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let ha = sim.add_host(addr(1), meta(true), Box::new(Probe::new("a", log.clone())));
        let hb = sim.add_host(addr(2), meta(true), Box::new(Probe::new("b", log.clone())));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.churn_burst(&[ha, hb], 1_000, 500);
        sim.run_until(1_200);
        assert!(!sim.is_alive(ha) && !sim.is_alive(hb));
        sim.run_until(2_000);
        assert!(sim.is_alive(ha) && sim.is_alive(hb));
        let log = log.borrow();
        assert!(log.iter().any(|l| l == "a stop@1000"), "{log:?}");
        assert!(log.iter().any(|l| l == "a start@1500"), "{log:?}");
    }

    #[test]
    fn queue_depth_peak_export_matches_engine_high_water_mark() {
        // The per-event gauge now flows through an interned MetricId; the
        // exported value must still equal the engine-side high-water mark
        // and keep its exact Prometheus rendering.
        let rec = obs::Recorder::new();
        rec.install();
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let mut a = Probe::new("a", log.clone());
        a.udp_target = Some(addr(2));
        a.tcp_target = Some(addr(2));
        a.tcp_payload = Some(vec![7u8; 32]);
        let mut b = Probe::new("b", log.clone());
        b.echo = true;
        let ha = sim.add_host(addr(1), meta(true), Box::new(a));
        let hb = sim.add_host(addr(2), meta(true), Box::new(b));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(10_000);

        let peak = sim.queue_depth_peak();
        assert!(peak >= 2, "ping-pong world should stack events, got {peak}");
        assert_eq!(rec.gauge("netsim.queue_depth_peak"), peak);
        assert!(
            rec.prometheus()
                .contains(&format!("netsim_queue_depth_peak {peak}\n")),
            "gauge missing from the Prometheus export"
        );
        obs::uninstall();
    }

    /// Three lossless probes at `addr(1..=3)`, all started at 0, each
    /// given its targets by `aim(i, probe)`.
    fn probe_world(aim: fn(u8, &mut Probe)) -> NetSim {
        let mut sim = NetSim::new(lossless());
        for i in 1..=3 {
            let mut p = Probe::new("p", Log::default());
            aim(i, &mut p);
            let h = sim.add_host(addr(i), meta(true), Box::new(p));
            sim.schedule_start(h, 0);
        }
        sim
    }

    #[test]
    fn pending_events_must_be_minted_and_in_dispatch_order() {
        // At 5 ms the queue is three "hello"s due at 15, one sent by each
        // host: 64-byte entries (at, key, owner, prov 12, `Ev::Udp` 28) at
        // the image's tail, keys 1 << 32, 2 << 32, 3 << 32.
        const W: usize = 64;
        let world = || probe_world(|i, p| p.udp_target = Some(addr(i % 3 + 1)));
        let mut sim = world();
        sim.run_until(5);
        let image = sim.snapshot().unwrap();
        let tail = image.len() - 3 * W;
        assert_eq!(image[tail - 8..tail], 3u64.to_le_bytes());
        assert!(world().restore(&image).is_ok());
        let entry = |i: usize| tail + i * W..tail + (i + 1) * W;
        let mut swapped = image.clone();
        swapped[entry(0)].copy_from_slice(&image[entry(1)]);
        swapped[entry(1)].copy_from_slice(&image[entry(0)]);
        let mut duplicated = image.clone();
        duplicated[entry(1)].copy_from_slice(&image[entry(0)]);
        let mut bumped = image.clone(); // host 2 has minted its key 0 only
        bumped[entry(2).start + 8] = 1;
        for (case, img) in [swapped, duplicated, bumped].iter().enumerate() {
            assert!(
                world().restore(img).is_err(),
                "hostile case {case} restored"
            );
        }
    }

    #[test]
    fn conn_cells_two_dials_could_share_are_rejected() {
        // Host 0 dials a vacant address (cell 0: failed, drained, freed);
        // host 1 dials host 2 (cell 1: open, live at both ends).
        let world =
            || probe_world(|i, p| p.tcp_target = [addr(9), addr(3)].get(i as usize - 1).copied());
        let run = |mutate: fn(&mut NetSim)| {
            let mut sim = world();
            sim.run_until(1_000);
            assert_eq!(sim.conn_free, [0]);
            assert_eq!(sim.slots[1].live_conns, [1]);
            mutate(&mut sim);
            world().restore(&sim.snapshot().unwrap())
        };
        assert!(run(|_| {}).is_ok());
        let hostile: [fn(&mut NetSim); 4] = [
            |s| s.conn_free.push(0),                            // listed twice
            |s| s.conn_free.push(1),                            // an open cell
            |s| s.slots[1].live_conns[0] += 1 << CONN_IDX_BITS, // wrong generation
            |s| s.slots[0].live_conns.push(1),                  // not an endpoint
        ];
        for (case, mutate) in hostile.into_iter().enumerate() {
            assert!(run(mutate).is_err(), "hostile case {case} restored");
        }
    }

    #[test]
    fn provenance_chains_reach_roots_and_survive_sharding() {
        // Every obs trace event emitted during dispatch must carry a
        // causal chain that walks back to an external root (cause 0),
        // and the (key, cause, depth) stamps must be identical under
        // any shard count.
        fn run(shards: usize) -> Vec<(u64, u64, u32, String)> {
            let rec = obs::Recorder::new();
            rec.install();
            let log: Log = Rc::default();
            let mut sim = NetSim::new(SimConfig {
                seed: 7,
                shards,
                ..SimConfig::default()
            });
            let mut hosts = Vec::new();
            for i in 0..4u8 {
                let mut p = Probe::new("p", log.clone());
                p.echo = i % 2 == 0;
                p.udp_target = Some(addr(((i + 1) % 4) + 1));
                p.tcp_target = (i == 1).then(|| addr(((i + 2) % 4) + 1));
                p.tcp_payload = Some(vec![0u8; 16]);
                let m = HostMeta {
                    country: "US",
                    asn: "Test",
                    region: Region::ALL[i as usize],
                    reachable: true,
                };
                hosts.push(sim.add_host(addr(i + 1), m, Box::new(p)));
            }
            for &h in &hosts {
                sim.schedule_start(h, 0);
            }
            sim.run_until(4_000);
            let q = rec.query();
            // Dispatch-emitted events carry keys; chains terminate at
            // cause 0 without cycling.
            let keyed: Vec<&obs::TraceEvent> = q.events().iter().filter(|e| e.key != 0).collect();
            assert!(!keyed.is_empty(), "no dispatched trace events recorded");
            assert!(!q.roots().is_empty(), "no external roots visible");
            for e in &keyed {
                let chain = q.chain(e.key);
                let last = *chain.last().unwrap();
                assert_eq!(
                    q.cause_of(last),
                    Some(0),
                    "chain from key {} stops at non-root {}",
                    e.key,
                    last
                );
                assert_eq!(chain.len() as u32, e.depth + 1, "depth mismatch");
            }
            let stamps = q
                .events()
                .iter()
                .map(|e| (e.key, e.cause, e.depth, e.name.clone()))
                .collect();
            obs::uninstall();
            stamps
        }
        let base = run(1);
        assert!(
            base.iter().any(|s| s.2 >= 2),
            "world too shallow: no chains of depth >= 2"
        );
        assert_eq!(run(2), base, "provenance diverged under 2 shards");
        assert_eq!(run(4), base, "provenance diverged under 4 shards");
    }

    #[test]
    fn shard_count_does_not_change_the_trace() {
        // The tentpole property at engine scope: a mixed UDP/TCP/timer
        // world with loss, jitter, and churn replays the identical global
        // callback order — captured in one shared log — under any shard
        // count.
        fn run(shards: usize) -> (Vec<String>, u64, (u64, u64), TcpCounters) {
            let log: Log = Rc::default();
            let mut sim = NetSim::new(SimConfig {
                seed: 99,
                udp_loss: 0.2,
                jitter_ms: 8,
                shards,
                ..SimConfig::default()
            });
            let names = ["h0", "h1", "h2", "h3", "h4", "h5"];
            let mut hosts = Vec::new();
            for i in 0..6u8 {
                let mut p = Probe::new(names[i as usize], log.clone());
                p.echo = i % 2 == 0;
                p.udp_target = Some(addr(((i + 1) % 6) + 1));
                p.tcp_target = (i % 3 == 0).then(|| addr(((i + 2) % 6) + 1));
                p.tcp_payload = Some(vec![0u8; 32]);
                let m = HostMeta {
                    country: "US",
                    asn: "Test",
                    region: Region::ALL[i as usize],
                    reachable: true,
                };
                hosts.push(sim.add_host(addr(i + 1), m, Box::new(p)));
            }
            for &h in &hosts {
                sim.schedule_start(h, 0);
            }
            sim.churn_burst(&[hosts[1]], 2_000, 1_000);
            sim.run_until(8_000);
            assert_eq!(
                sim.shard_event_counts().iter().sum::<u64>(),
                sim.events_processed(),
                "per-shard counts must partition the event total"
            );
            let trace = log.borrow().clone();
            (
                trace,
                sim.events_processed(),
                sim.udp_counters(),
                sim.tcp_counters(),
            )
        }
        let base = run(1);
        assert!(base.1 > 20, "world too quiet to prove anything: {base:?}");
        for shards in [2, 3, 5] {
            assert_eq!(run(shards), base, "shards={shards} diverged");
        }
    }

    #[test]
    fn conn_cells_recycle_and_stale_ids_are_inert() {
        // Dial, close, wait for the wire to drain, dial again: the second
        // dial must reuse the slab cell under a bumped generation, and
        // the first (stale) id must be inert — no send, zero RTT.
        struct Redialer {
            target: HostAddr,
            conns: Rc<RefCell<Vec<ConnId>>>,
            stale_rtt: Rc<RefCell<Vec<u32>>>,
        }
        impl Host for Redialer {
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                let c = ctx.tcp_connect(self.target);
                self.conns.borrow_mut().push(c);
            }
            fn on_udp(&mut self, _: &mut Ctx, _: HostAddr, _: &[u8]) {}
            fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
                if let TcpEvent::Connected { conn, .. } = event {
                    ctx.tcp_close(conn);
                    if self.conns.borrow().len() == 1 {
                        ctx.set_timer(1_000, 1);
                    }
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx, _: u64) {
                let first = self.conns.borrow()[0];
                // Poking the stale id must be a no-op, not an aliased
                // access to the recycled cell.
                ctx.tcp_send(first, b"stale".to_vec());
                self.stale_rtt.borrow_mut().push(ctx.rtt_ms(first));
                let again = ctx.tcp_connect(self.target);
                self.conns.borrow_mut().push(again);
            }
        }
        let conns: Rc<RefCell<Vec<ConnId>>> = Rc::default();
        let stale_rtt: Rc<RefCell<Vec<u32>>> = Rc::default();
        let b_log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let ha = sim.add_host(
            addr(1),
            meta(true),
            Box::new(Redialer {
                target: addr(2),
                conns: conns.clone(),
                stale_rtt: stale_rtt.clone(),
            }),
        );
        let hb = sim.add_host(addr(2), meta(true), Box::new(Probe::new("b", b_log)));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(10_000);
        let conns = conns.borrow();
        assert_eq!(conns.len(), 2, "second dial never happened");
        assert_eq!(conn_idx(conns[0]), conn_idx(conns[1]), "cell not recycled");
        assert_eq!(
            conn_gen(conns[1]),
            conn_gen(conns[0]) + 1,
            "generation not bumped on free"
        );
        assert_eq!(*stale_rtt.borrow(), vec![0], "stale id leaked a live RTT");
        assert_eq!(sim.tcp_counters().connects, 2);
        assert_eq!(sim.tcp_counters().bytes, 0, "stale send was delivered");
    }

    #[test]
    fn restart_after_stop_calls_on_start_again() {
        let log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let h = sim.add_host(addr(1), meta(true), Box::new(Probe::new("a", log.clone())));
        sim.schedule_start(h, 0);
        sim.schedule_stop(h, 100);
        sim.schedule_start(h, 200);
        sim.run_until(1_000);
        assert_eq!(
            *log.borrow(),
            vec!["a start@0", "a stop@100", "a start@200"]
        );
    }
}
