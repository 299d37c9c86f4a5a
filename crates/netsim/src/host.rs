//! What a simulated host sees: the [`Host`] callbacks, the [`Ctx`] it
//! acts through, and the addresses, payloads and TCP events they carry.

use crate::engine::conn::{ConnId, ConnTable};
use obs::snap::{SnapError, SnapWriter};
use obs::snap_struct;
use rand::rngs::StdRng;
use std::fmt;
use std::net::Ipv4Addr;

/// Identifies a host inside one simulation.
pub type HostId = usize;

/// The bytes of one simulated datagram or stream segment. The engine
/// owns them from `Ctx::send_udp` / `Ctx::tcp_send` to delivery and never
/// clones them: a send moves the sender's buffer into its event, and the
/// truncation and corruption faults edit that buffer in place.
pub type Payload = Vec<u8>;

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
        /// Payload bytes.
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
    /// non-checkpointable, which fails
    /// [`NetSim::snapshot`](crate::NetSim::snapshot) with
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
    /// [`SnapError::Unsupported`] — fails
    /// [`NetSim::restore`](crate::NetSim::restore) with it.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), SnapError> {
        Err(SnapError::Unsupported(
            "host behaviour does not implement load_state",
        ))
    }
    /// Surrender the behaviour as `Any` so experiment harnesses can
    /// downcast it back to the concrete type and read its logs after
    /// [`NetSim::remove_host_behaviour`](crate::NetSim::remove_host_behaviour).
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// What a host asks the engine to do; applied after the callback returns.
pub(crate) enum Action {
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
    pub(crate) host: HostId,
    pub(crate) local: HostAddr,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) conns: &'a mut ConnTable,
    pub(crate) actions: Vec<Action>,
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

    /// Send a UDP datagram.
    pub fn send_udp(&mut self, to: HostAddr, bytes: impl Into<Payload>) {
        self.actions.push(Action::SendUdp {
            to,
            bytes: bytes.into(),
        });
    }

    /// Open a TCP connection; resolves to `Connected` or `ConnectFailed`.
    pub fn tcp_connect(&mut self, to: HostAddr) -> ConnId {
        let conn = self.conns.alloc(self.host, self.local, to);
        self.actions.push(Action::TcpConnect { conn, to });
        conn
    }

    /// Send bytes on an established connection.
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
    /// as connection latency). Zero for unknown or stale (recycled-cell)
    /// connections, and for a dial opened in this same callback.
    pub fn rtt_ms(&self, conn: ConnId) -> u32 {
        self.conns.get(conn).map_or(0, |c| c.rtt_ms)
    }
}
