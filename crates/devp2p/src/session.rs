//! The DEVp2p session state machine: HELLO exchange, capability
//! negotiation, message-ID multiplexing, keepalive.

use crate::capability_length;
use crate::messages::{DisconnectReason, Hello, Message, MessageError};

/// Message IDs `0x00..=0x0f` belong to the base protocol; negotiated
/// subprotocols share the space from here up.
pub const BASE_PROTOCOL_OFFSET: u64 = 0x10;

/// A capability both sides support, with its assigned message-ID window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedCapability {
    /// Subprotocol name.
    pub name: String,
    /// Negotiated version (highest common).
    pub version: u32,
    /// First message ID of this capability's window.
    pub offset: u64,
    /// Window length.
    pub length: usize,
}

obs::snap_struct!(SharedCapability {
    name,
    version,
    offset,
    length
});

/// Session-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Base-protocol message failed to decode.
    Message(MessageError),
    /// Peer sent a non-HELLO message before HELLO.
    HelloExpected,
    /// Message ID falls in no negotiated window.
    UnroutableId(u64),
    /// Session already ended.
    Ended,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Message(e) => write!(f, "{e}"),
            SessionError::HelloExpected => write!(f, "first message must be HELLO"),
            SessionError::UnroutableId(id) => write!(f, "message id {id} not in any window"),
            SessionError::Ended => write!(f, "session already disconnected"),
        }
    }
}

impl std::error::Error for SessionError {}

/// What an inbound message means for the application.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The peer's HELLO arrived; capabilities are now negotiated.
    /// `shared` empty ⇒ the caller should send `UselessPeer` and hang up.
    HelloReceived {
        /// The peer's HELLO.
        hello: Hello,
        /// Negotiated capability windows.
        shared: Vec<SharedCapability>,
    },
    /// Peer disconnected with a reason.
    Disconnected(DisconnectReason),
    /// Keepalive ping arrived; `Session` already queued the pong — the
    /// event is informational.
    PingReceived,
    /// Keepalive answer arrived.
    PongReceived,
    /// A subprotocol message, routed to its capability.
    Subprotocol {
        /// Capability name (e.g. `eth`).
        cap: String,
        /// Negotiated version.
        version: u32,
        /// Message id *relative to the capability's window*.
        msg: u64,
        /// Raw RLP payload.
        payload: Vec<u8>,
    },
}

#[derive(Debug, PartialEq)]
enum State {
    AwaitingHello,
    Active,
    Ended,
}

obs::snap_enum!(State { 0 => AwaitingHello, 1 => Active, 2 => Ended });

/// One DEVp2p session over an established RLPx connection.
#[derive(Debug)]
pub struct Session {
    local_hello: Hello,
    state: State,
    remote_hello: Option<Hello>,
    shared: Vec<SharedCapability>,
    /// Outbound (msg_id, payload) queue the caller drains and frames.
    outbound: Vec<(u64, Vec<u8>)>,
}

// Restoring a session queues nothing and bumps no counters, unlike
// [`Session::new`]: whatever was in flight is already in `outbound`.
obs::snap_struct!(Session {
    local_hello,
    state,
    remote_hello,
    shared,
    outbound
});

impl Session {
    /// Start a session; queues our HELLO immediately.
    pub fn new(local_hello: Hello) -> Session {
        let mut s = Session {
            local_hello,
            state: State::AwaitingHello,
            remote_hello: None,
            shared: Vec::new(),
            outbound: Vec::new(),
        };
        let hello = Message::Hello(s.local_hello.clone());
        s.outbound.push((hello.msg_id(), hello.encode_payload()));
        obs::counter_add("devp2p.hello_sent", 1);
        s
    }

    /// Drain queued outbound messages (caller frames them via RLPx).
    pub fn take_outbound(&mut self) -> Vec<(u64, Vec<u8>)> {
        std::mem::take(&mut self.outbound)
    }

    /// Our own HELLO, as the session was started with.
    pub fn local_hello(&self) -> &Hello {
        &self.local_hello
    }

    /// The peer's HELLO, once received.
    pub fn remote_hello(&self) -> Option<&Hello> {
        self.remote_hello.as_ref()
    }

    /// Negotiated capabilities.
    pub fn shared_capabilities(&self) -> &[SharedCapability] {
        &self.shared
    }

    /// Whether the session is active (HELLO exchanged, not disconnected).
    pub fn is_active(&self) -> bool {
        self.state == State::Active
    }

    /// Whether the session has ended.
    pub fn is_ended(&self) -> bool {
        self.state == State::Ended
    }

    /// Queue a DISCONNECT and end the session.
    pub fn disconnect(&mut self, reason: DisconnectReason) {
        if self.state != State::Ended {
            let msg = Message::Disconnect(reason);
            self.outbound.push((msg.msg_id(), msg.encode_payload()));
            self.state = State::Ended;
            obs::counter_add("devp2p.disconnect_sent", 1);
        }
    }

    /// Queue a keepalive PING.
    pub fn ping(&mut self) {
        if self.state != State::Ended {
            self.outbound
                .push((Message::Ping.msg_id(), Message::Ping.encode_payload()));
        }
    }

    /// Queue a subprotocol message; `msg` is relative to the capability's
    /// window.
    pub fn send_subprotocol(
        &mut self,
        cap: &str,
        msg: u64,
        payload: Vec<u8>,
    ) -> Result<(), SessionError> {
        if self.state == State::Ended {
            return Err(SessionError::Ended);
        }
        let shared = self
            .shared
            .iter()
            .find(|c| c.name == cap)
            .ok_or(SessionError::UnroutableId(msg))?;
        self.outbound.push((shared.offset + msg, payload));
        Ok(())
    }

    /// Process one inbound `(msg_id, payload)`.
    pub fn on_message(
        &mut self,
        msg_id: u64,
        payload: &[u8],
    ) -> Result<SessionEvent, SessionError> {
        if self.state == State::Ended {
            return Err(SessionError::Ended);
        }
        if msg_id < BASE_PROTOCOL_OFFSET {
            let message = Message::decode(msg_id, payload).map_err(SessionError::Message)?;
            return match message {
                Message::Hello(hello) => {
                    if self.state != State::AwaitingHello {
                        // duplicate HELLO: protocol breach
                        self.disconnect(DisconnectReason::ProtocolBreach);
                        return Ok(SessionEvent::Disconnected(DisconnectReason::ProtocolBreach));
                    }
                    self.shared = negotiate(&self.local_hello, &hello);
                    self.remote_hello = Some(hello.clone());
                    self.state = State::Active;
                    obs::counter_add("devp2p.hello_received", 1);
                    Ok(SessionEvent::HelloReceived {
                        hello,
                        shared: self.shared.clone(),
                    })
                }
                Message::Disconnect(reason) => {
                    self.state = State::Ended;
                    obs::counter_add("devp2p.disconnect_received", 1);
                    Ok(SessionEvent::Disconnected(reason))
                }
                Message::Ping => {
                    self.outbound
                        .push((Message::Pong.msg_id(), Message::Pong.encode_payload()));
                    Ok(SessionEvent::PingReceived)
                }
                Message::Pong => Ok(SessionEvent::PongReceived),
            };
        }
        // Subprotocol space requires an active session.
        if self.state != State::Active {
            return Err(SessionError::HelloExpected);
        }
        let cap = self
            .shared
            .iter()
            .find(|c| msg_id >= c.offset && msg_id < c.offset + c.length as u64)
            .ok_or(SessionError::UnroutableId(msg_id))?;
        Ok(SessionEvent::Subprotocol {
            cap: cap.name.clone(),
            version: cap.version,
            msg: msg_id - cap.offset,
            payload: payload.to_vec(),
        })
    }
}

/// Capability negotiation: for each name, the highest version both sides
/// support; windows are assigned in alphabetical name order starting at
/// [`BASE_PROTOCOL_OFFSET`].
fn negotiate(local: &Hello, remote: &Hello) -> Vec<SharedCapability> {
    let mut names: Vec<&str> = Vec::new();
    let mut picks: Vec<(String, u32)> = Vec::new();
    for lc in &local.capabilities {
        let best = remote
            .capabilities
            .iter()
            .filter(|rc| rc.name == lc.name && rc.version == lc.version)
            .map(|rc| rc.version)
            .max();
        if best.is_some() && !names.contains(&lc.name.as_str()) {
            // highest common version for this name
            let highest = local
                .capabilities
                .iter()
                .filter(|c| c.name == lc.name)
                .filter(|c| remote.capabilities.contains(c))
                .map(|c| c.version)
                .max();
            if let Some(highest) = highest {
                names.push(lc.name.as_str());
                picks.push((lc.name.clone(), highest));
            }
        }
    }
    picks.sort();
    let mut offset = BASE_PROTOCOL_OFFSET;
    picks
        .into_iter()
        .map(|(name, version)| {
            let length = capability_length(&name, version);
            let cap = SharedCapability {
                name,
                version,
                offset,
                length,
            };
            offset += length as u64;
            cap
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Capability, P2P_VERSION};
    use enode::NodeId;

    fn hello_with(caps: Vec<Capability>) -> Hello {
        Hello {
            p2p_version: P2P_VERSION,
            client_id: "test/v0".into(),
            capabilities: caps,
            listen_port: 30303,
            node_id: NodeId([1u8; 64]),
        }
    }

    fn pump(a: &mut Session, b: &mut Session) -> Vec<SessionEvent> {
        // Deliver all queued messages in both directions once.
        let mut events = Vec::new();
        for (id, payload) in a.take_outbound() {
            if let Ok(e) = b.on_message(id, &payload) {
                events.push(e);
            }
        }
        for (id, payload) in b.take_outbound() {
            if let Ok(e) = a.on_message(id, &payload) {
                events.push(e);
            }
        }
        events
    }

    #[test]
    fn hello_exchange_negotiates_eth() {
        let mut a = Session::new(hello_with(vec![Capability::eth62(), Capability::eth63()]));
        let mut b = Session::new(hello_with(vec![Capability::eth63()]));
        let events = pump(&mut a, &mut b);
        assert_eq!(events.len(), 2);
        assert!(a.is_active() && b.is_active());
        let shared = a.shared_capabilities();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].name, "eth");
        assert_eq!(shared[0].version, 63);
        assert_eq!(shared[0].offset, BASE_PROTOCOL_OFFSET);
        assert_eq!(shared[0].length, 17);
        assert_eq!(a.shared_capabilities(), b.shared_capabilities());
    }

    #[test]
    fn no_overlap_yields_empty_shared() {
        let mut a = Session::new(hello_with(vec![Capability::eth63()]));
        let mut b = Session::new(hello_with(vec![Capability::new("bzz", 1)]));
        pump(&mut a, &mut b);
        assert!(a.shared_capabilities().is_empty());
        // the app layer reacts with UselessPeer
        a.disconnect(DisconnectReason::UselessPeer);
        let out = a.take_outbound();
        assert_eq!(out.len(), 1);
        let ev = b.on_message(out[0].0, &out[0].1).unwrap();
        assert_eq!(
            ev,
            SessionEvent::Disconnected(DisconnectReason::UselessPeer)
        );
        assert!(b.is_ended());
    }

    #[test]
    fn multiple_caps_get_ordered_windows() {
        let caps = vec![
            Capability::new("shh", 2),
            Capability::eth63(),
            Capability::new("bzz", 1),
        ];
        let mut a = Session::new(hello_with(caps.clone()));
        let mut b = Session::new(hello_with(caps));
        pump(&mut a, &mut b);
        let shared = a.shared_capabilities();
        assert_eq!(shared.len(), 3);
        // alphabetical: bzz, eth, shh
        assert_eq!(shared[0].name, "bzz");
        assert_eq!(shared[0].offset, 0x10);
        assert_eq!(shared[1].name, "eth");
        assert_eq!(shared[1].offset, 0x10 + 14);
        assert_eq!(shared[2].name, "shh");
        assert_eq!(shared[2].offset, 0x10 + 14 + 17);
    }

    #[test]
    fn subprotocol_routing_roundtrip() {
        let mut a = Session::new(hello_with(vec![Capability::eth63()]));
        let mut b = Session::new(hello_with(vec![Capability::eth63()]));
        pump(&mut a, &mut b);
        a.send_subprotocol("eth", 0x00, vec![0xc0]).unwrap(); // STATUS
        let out = a.take_outbound();
        assert_eq!(out[0].0, 0x10);
        let ev = b.on_message(out[0].0, &out[0].1).unwrap();
        assert_eq!(
            ev,
            SessionEvent::Subprotocol {
                cap: "eth".into(),
                version: 63,
                msg: 0,
                payload: vec![0xc0]
            }
        );
    }

    #[test]
    fn subprotocol_before_hello_rejected() {
        let mut a = Session::new(hello_with(vec![Capability::eth63()]));
        assert_eq!(
            a.on_message(0x10, &[0xc0]),
            Err(SessionError::HelloExpected)
        );
    }

    #[test]
    fn unroutable_id_rejected() {
        let mut a = Session::new(hello_with(vec![Capability::eth63()]));
        let mut b = Session::new(hello_with(vec![Capability::eth63()]));
        pump(&mut a, &mut b);
        assert_eq!(
            a.on_message(0x10 + 17, &[0xc0]),
            Err(SessionError::UnroutableId(0x21))
        );
    }

    #[test]
    fn ping_autoresponds_pong() {
        let mut a = Session::new(hello_with(vec![Capability::eth63()]));
        let mut b = Session::new(hello_with(vec![Capability::eth63()]));
        pump(&mut a, &mut b);
        a.ping();
        let out = a.take_outbound();
        let ev = b.on_message(out[0].0, &out[0].1).unwrap();
        assert_eq!(ev, SessionEvent::PingReceived);
        let pong = b.take_outbound();
        assert_eq!(pong.len(), 1);
        let ev = a.on_message(pong[0].0, &pong[0].1).unwrap();
        assert_eq!(ev, SessionEvent::PongReceived);
    }

    #[test]
    fn duplicate_hello_is_protocol_breach() {
        let mut a = Session::new(hello_with(vec![Capability::eth63()]));
        let mut b = Session::new(hello_with(vec![Capability::eth63()]));
        pump(&mut a, &mut b);
        let dup = Message::Hello(hello_with(vec![Capability::eth63()]));
        let ev = b.on_message(dup.msg_id(), &dup.encode_payload()).unwrap();
        assert_eq!(
            ev,
            SessionEvent::Disconnected(DisconnectReason::ProtocolBreach)
        );
        assert!(b.is_ended());
    }

    #[test]
    fn send_after_end_fails() {
        let mut a = Session::new(hello_with(vec![Capability::eth63()]));
        a.disconnect(DisconnectReason::ClientQuitting);
        assert_eq!(
            a.send_subprotocol("eth", 0, vec![]),
            Err(SessionError::Ended)
        );
        assert_eq!(a.on_message(0x02, &[0xc0]), Err(SessionError::Ended));
    }

    #[test]
    fn session_queues_hello_at_start() {
        let mut a = Session::new(hello_with(vec![Capability::eth63()]));
        let out = a.take_outbound();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0x00);
    }
}
